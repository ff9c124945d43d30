package main

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestParseTenants(t *testing.T) {
	tns, err := parseTenants("high:tok-h:10:3, low:tok-l:0 ,solo:tok-s")
	if err != nil {
		t.Fatalf("parseTenants: %v", err)
	}
	want := []tenantSpec{
		{name: "high", token: "tok-h", prio: 10, weight: 3},
		{name: "low", token: "tok-l", prio: 0, weight: 1},
		{name: "solo", token: "tok-s", prio: 0, weight: 1},
	}
	if len(tns) != len(want) {
		t.Fatalf("got %d tenants, want %d", len(tns), len(want))
	}
	for i, w := range want {
		if tns[i] != w {
			t.Errorf("tenant %d = %+v, want %+v", i, tns[i], w)
		}
	}

	if tns, err := parseTenants(""); err != nil || tns != nil {
		t.Errorf("empty list: got %v, %v; want nil, nil", tns, err)
	}
	for _, bad := range []string{
		"nameonly",      // no token
		":tok",          // empty name
		"a:t:notanint",  // bad priority
		"a:t:1:0",       // weight < 1
		"a:t:1:2:extra", // too many fields
		"dup:t1,dup:t2", // duplicate name
	} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q): expected error", bad)
		}
	}
}

func TestBuildPickerInterleavesWeights(t *testing.T) {
	tenants := []tenantSpec{
		{name: "a", weight: 3},
		{name: "b", weight: 1},
	}
	picker := buildPicker(tenants)
	if len(picker) != 4 {
		t.Fatalf("picker length %d, want 4", len(picker))
	}
	counts := map[int]int{}
	for _, i := range picker {
		counts[i]++
	}
	if counts[0] != 3 || counts[1] != 1 {
		t.Fatalf("picker shares %v, want a=3 b=1", counts)
	}
	// Round-robin interleave: the first pass covers every live tenant,
	// so b appears in the first two slots rather than after all of a.
	if picker[0] != 0 || picker[1] != 1 {
		t.Errorf("picker %v not interleaved (want [0 1 0 0])", picker)
	}
}

func okStage(rate float64) stageResult {
	return stageResult{OfferedRPS: rate, Sent: 10, Completed: 10, P50Ms: 2, P99Ms: 5}
}

func TestCheckReportBaseInvariants(t *testing.T) {
	rep := report{Stages: []stageResult{okStage(25)}}
	if err := checkReport(rep, checkGates{}); err != nil {
		t.Fatalf("clean report failed: %v", err)
	}

	if err := checkReport(report{}, checkGates{}); err == nil {
		t.Error("empty report passed")
	}
	bad := rep
	bad.Stages = []stageResult{{OfferedRPS: 25, Sent: 10}}
	if err := checkReport(bad, checkGates{}); err == nil {
		t.Error("zero-completed stage passed")
	}
	bad.Stages = []stageResult{{OfferedRPS: 25, Sent: 10, Completed: 10, P99Ms: 4, Errors: errs{Server5xx: 1}}}
	if err := checkReport(bad, checkGates{}); err == nil {
		t.Error("5xx stage passed")
	}
	bad.Stages = []stageResult{{OfferedRPS: 25, Sent: 10, Completed: 10, P99Ms: 4, Errors: errs{Transport: 2}}}
	if err := checkReport(bad, checkGates{}); err == nil {
		t.Error("transport-error stage passed")
	}
}

func TestCheckReportTenantGates(t *testing.T) {
	st := okStage(50)
	st.Tenants = map[string]*tenantResult{
		"high": {Sent: 8, Completed: 8, P99Ms: 12},
		"low":  {Sent: 8, Completed: 2, P99Ms: 30, Errors: errs{RateLimited: 4, Capacity: 2}},
	}
	rep := report{Stages: []stageResult{st}}

	gates := checkGates{clean: []string{"high"}, shed: []string{"low"}, maxCleanP99: 50}
	if err := checkReport(rep, gates); err != nil {
		t.Fatalf("two-tenant shed report failed: %v", err)
	}

	// Clean tenant hit capacity: must fail.
	st.Tenants["high"].Errors.Capacity = 1
	if err := checkReport(rep, gates); err == nil || !strings.Contains(err.Error(), "high") {
		t.Errorf("503 on clean tenant passed gate: %v", err)
	}
	st.Tenants["high"].Errors.Capacity = 0

	// Clean tenant over the p99 bound: must fail.
	gates.maxCleanP99 = 10
	if err := checkReport(rep, gates); err == nil || !strings.Contains(err.Error(), "p99") {
		t.Errorf("p99 over bound passed gate: %v", err)
	}
	gates.maxCleanP99 = 50

	// Shed tenant that was never pushed back: must fail.
	st.Tenants["low"].Errors = errs{}
	if err := checkReport(rep, gates); err == nil || !strings.Contains(err.Error(), "never shed") {
		t.Errorf("unshed tenant passed -require-shed: %v", err)
	}
	st.Tenants["low"].Errors = errs{RateLimited: 4, Capacity: 2}

	// A clean tenant missing from a stage is a config error, not a pass.
	gates.clean = []string{"ghost"}
	if err := checkReport(rep, gates); err == nil {
		t.Error("missing clean tenant passed gate")
	}
}

func TestDiffBaseline(t *testing.T) {
	base := report{Stages: []stageResult{okStage(25), okStage(50)}}
	fresh := report{Stages: []stageResult{okStage(25), okStage(50)}}
	if err := diffBaseline(fresh, base); err != nil {
		t.Fatalf("identical reports failed: %v", err)
	}

	// >2x p99 regression past the floor fails.
	reg := fresh
	reg.Stages = []stageResult{okStage(25), {OfferedRPS: 50, Sent: 10, Completed: 10, P99Ms: 2 * baselineP99FloorMs}}
	base2 := report{Stages: []stageResult{okStage(25), {OfferedRPS: 50, Sent: 10, Completed: 10, P99Ms: baselineP99FloorMs / 2}}}
	if err := diffBaseline(reg, base2); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("2x regression passed: %v", err)
	}

	// The same ratio below the absolute floor is noise, not a failure.
	small := report{Stages: []stageResult{{OfferedRPS: 25, Sent: 10, Completed: 10, P99Ms: 8}}}
	smallBase := report{Stages: []stageResult{{OfferedRPS: 25, Sent: 10, Completed: 10, P99Ms: 2}}}
	if err := diffBaseline(small, smallBase); err != nil {
		t.Errorf("sub-floor regression failed the gate: %v", err)
	}

	// New transport errors fail even with a fine p99.
	tr := report{Stages: []stageResult{{OfferedRPS: 25, Sent: 10, Completed: 9, P99Ms: 3, Errors: errs{Transport: 1}}}}
	if err := diffBaseline(tr, base); err == nil || !strings.Contains(err.Error(), "transport") {
		t.Errorf("new transport errors passed: %v", err)
	}

	// Disjoint stage rates: the gate must refuse, not silently pass.
	other := report{Stages: []stageResult{okStage(999)}}
	if err := diffBaseline(other, base); err == nil {
		t.Error("disjoint baseline passed")
	}
}

func TestBodySaltsUniqueRequests(t *testing.T) {
	cfg := loadConfig{
		unique:  true,
		specs:   buildMatrix([]string{"dot"}),
		tenants: []tenantSpec{{name: "a", prio: 7, weight: 1}},
	}
	cfg.salt = &atomic.Int64{}
	b1 := cfg.body(0, cfg.tenants[0])
	b2 := cfg.body(0, cfg.tenants[0])
	if string(b1) == string(b2) {
		t.Fatalf("unique bodies identical: %s", b1)
	}
	if !strings.Contains(string(b1), `"priority":7`) {
		t.Errorf("body missing priority: %s", b1)
	}
	cfg.unique = false
	b3 := cfg.body(0, tenantSpec{name: "b", weight: 1})
	if strings.Contains(string(b3), "priority") || strings.Contains(string(b3), "Delta") {
		t.Errorf("non-unique zero-priority body carries extras: %s", b3)
	}
}
