package experiments

import "testing"

func TestCPVariants(t *testing.T) {
	vs := CPVariants()
	if len(vs) != 5 || vs[0] != "CP" {
		t.Errorf("variants = %v", vs)
	}
}

func ablationCP(t *testing.T, r *Runner) {
	rows, tbl, err := AblationCP(r, []float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 variants x 2 loads
		t.Fatalf("rows = %d", len(rows))
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	for _, row := range rows {
		if row.Variant == "CP" && row.RelPerf != 1 {
			t.Errorf("full CP not its own baseline: %v", row.RelPerf)
		}
		if row.RelPerf <= 0 {
			t.Errorf("non-positive rel perf: %+v", row)
		}
	}
}

func TestAblationBoost(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rows, tbl, err := AblationBoost(tinyOptions(), []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d/%d", len(rows), len(tbl.Rows))
	}
	var responsive, noBoost float64
	for _, row := range rows {
		if row.Governor == "responsive" {
			responsive = row.MeanExpansion
		} else {
			noBoost = row.MeanExpansion
		}
	}
	// Removing boost must not make jobs faster.
	if noBoost < responsive-1e-9 {
		t.Errorf("no-boost expansion %v < responsive %v", noBoost, responsive)
	}
}

func TestMigrationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rows, tbl, err := MigrationStudy(tinyOptions(), []float64{0.7}, []float64{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var off, on MigrationRow
	for _, r := range rows {
		if r.PeriodMS == 0 {
			off = r
		} else {
			on = r
		}
	}
	if off.Migrations != 0 {
		t.Errorf("disabled study migrated %d times", off.Migrations)
	}
	// Enabled migration must not make things meaningfully worse.
	if on.MeanExpansion > off.MeanExpansion*1.03 {
		t.Errorf("migration hurt: %v -> %v", off.MeanExpansion, on.MeanExpansion)
	}
}

func TestCouplingDegreeStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rows, tbl, err := CouplingDegreeStudy(tinyOptions(), 0.7, []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(degree int, sched string) CouplingDegreeRow {
		for _, r := range rows {
			if r.Degree == degree && r.Sched == sched {
				return r
			}
		}
		t.Fatalf("missing %d/%s", degree, sched)
		return CouplingDegreeRow{}
	}
	if get(1, "CF").RelPerfVsCF != 1 {
		t.Error("CF not its own baseline")
	}
	// The paper's thesis: CP's advantage over CF grows with the degree of
	// coupling.
	if get(6, "CP").RelPerfVsCF < get(1, "CP").RelPerfVsCF-0.01 {
		t.Errorf("CP advantage shrank with coupling: DoC1 %v vs DoC6 %v",
			get(1, "CP").RelPerfVsCF, get(6, "CP").RelPerfVsCF)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestCouplingDegreeStudyRejectsBadDegree(t *testing.T) {
	if _, _, err := CouplingDegreeStudy(tinyOptions(), 0.7, []int{7}); err == nil {
		t.Error("degree 7 (does not divide 180) accepted")
	}
}

func headline(t *testing.T, r *Runner) {
	rows, tbl, err := Headline(r, []float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.MaxGainVsCF < row.MeanGainVsCF {
			t.Errorf("%v: max gain %v < mean gain %v", row.Class, row.MaxGainVsCF, row.MeanGainVsCF)
		}
		// CP should never be meaningfully below CF.
		if row.MeanGainVsCF < -0.02 {
			t.Errorf("%v: mean gain %v strongly negative", row.Class, row.MeanGainVsCF)
		}
	}
}
