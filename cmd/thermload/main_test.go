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
