package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleDoc = `{
  "default": {"class": "standard", "rate": 50, "burst": 100},
  "tenants": [
    {"name": "acme", "class": "high", "tokens": ["tok-a", "tok-a2"],
     "rate": 200, "burst": 400, "max_queue": 512, "max_concurrent": 32},
    {"name": "bulk", "class": "batch", "tokens": ["tok-b"],
     "rate": 5, "max_queue": 8, "max_concurrent": 2}
  ]
}`

func TestParseAndLookup(t *testing.T) {
	q, err := Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, named := q.Lookup("tok-a")
	if !named || p.Name != "acme" || p.Class != ClassHigh || p.Rate != 200 || p.MaxConcurrent != 32 {
		t.Fatalf("tok-a resolved to %+v (named=%v)", p, named)
	}
	if p2, _ := q.Lookup("tok-a2"); p2 != p {
		t.Fatalf("two tokens of one tenant resolved to distinct profiles")
	}
	if p, named = q.Lookup("unknown-token"); named || p.Name != "default" || p.Rate != 50 {
		t.Fatalf("unknown token resolved to %+v (named=%v), want default profile", p, named)
	}
	if p, named = q.Lookup(""); named || p.Name != "default" {
		t.Fatalf("empty token resolved to %+v (named=%v), want default profile", p, named)
	}
	if got := q.ByName("bulk"); got == nil || got.Class != ClassBatch || got.MaxQueue != 8 {
		t.Fatalf("ByName(bulk) = %+v", got)
	}
	if q.ByName("nobody") != nil {
		t.Fatalf("ByName(nobody) should be nil")
	}
	if names := q.Names(); len(names) != 2 || names[0] != "acme" || names[1] != "bulk" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"malformed", `{`, "quota file"},
		{"unknown field", `{"default": {"rat": 5}}`, "quota file"},
		{"unknown class", `{"tenants": [{"name": "x", "class": "vip"}]}`, "unknown class"},
		{"nameless tenant", `{"tenants": [{"class": "high"}]}`, "no name"},
		{"reserved name", `{"tenants": [{"name": "default"}]}`, "reserved"},
		{"duplicate name", `{"tenants": [{"name": "x"}, {"name": "x"}]}`, "duplicate tenant name"},
		{"duplicate token", `{"tenants": [{"name": "x", "tokens": ["t"]}, {"name": "y", "tokens": ["t"]}]}`, "claimed by two"},
		{"negative rate", `{"tenants": [{"name": "x", "rate": -1}]}`, "non-negative"},
		{"default with tokens", `{"default": {"tokens": ["t"]}}`, "no name or tokens"},
		{"empty token", `{"tenants": [{"name": "x", "tokens": [" "]}]}`, "empty token"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Parse err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestClassRankAndParse(t *testing.T) {
	order := []Class{ClassBatch, ClassStandard, ClassHigh, ClassCritical}
	for i := 1; i < len(order); i++ {
		if order[i].Rank() <= order[i-1].Rank() {
			t.Fatalf("%s should outrank %s", order[i], order[i-1])
		}
	}
	if c, err := ParseClass(""); err != nil || c != ClassStandard {
		t.Fatalf("ParseClass(\"\") = %v, %v", c, err)
	}
	if c, err := ParseClass(" HIGH "); err != nil || c != ClassHigh {
		t.Fatalf("ParseClass normalization: %v, %v", c, err)
	}
	if _, err := ParseClass("vip"); err == nil {
		t.Fatalf("ParseClass(vip) should fail")
	}
}

func TestEffectivePriorityClassDominates(t *testing.T) {
	// A batch tenant bidding the maximum client priority must still
	// rank below a critical tenant bidding the minimum.
	batchMax := EffectivePriority(ClassBatch, 1<<30)
	criticalMin := EffectivePriority(ClassCritical, -(1 << 30))
	if batchMax >= criticalMin {
		t.Fatalf("batch(max)=%d should rank below critical(min)=%d", batchMax, criticalMin)
	}
	// Within one class, the client priority breaks ties.
	if EffectivePriority(ClassHigh, 2) <= EffectivePriority(ClassHigh, 1) {
		t.Fatalf("client priority should order within a class")
	}
	// An unknown class falls back to standard.
	if EffectivePriority(Class("bogus"), 0) != EffectivePriority(ClassStandard, 0) {
		t.Fatalf("unknown class should rank as standard")
	}
}

// A default-only quota file is the global per-client limit: every
// token, known or not, resolves to the default profile's envelope.
func TestDefaultOnlyProfile(t *testing.T) {
	q, err := Parse([]byte(`{"default": {"rate": 7, "burst": 14}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range []string{"", "whatever"} {
		p, named := q.Lookup(tok)
		if named || p.Name != "default" || p.Rate != 7 || p.Burst != 14 || p.Class != ClassStandard {
			t.Fatalf("Lookup(%q) = %+v (named=%v)", tok, p, named)
		}
	}
	if len(q.Names()) != 0 {
		t.Fatalf("default-only table names tenants: %v", q.Names())
	}
}

func TestSourceReloadAndHooks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "quotas.json")
	if err := os.WriteFile(path, []byte(sampleDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if p, _ := src.Lookup("tok-a"); p.Rate != 200 {
		t.Fatalf("initial rate = %v", p.Rate)
	}

	var hookTables []*Quotas
	src.OnReload(func(q *Quotas) { hookTables = append(hookTables, q) })

	// A malformed rewrite keeps the old table and runs no hook.
	if err := os.WriteFile(path, []byte(`{"tenants": [{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := src.Reload(); err == nil {
		t.Fatalf("Reload of malformed file should fail")
	}
	if p, named := src.Lookup("tok-a"); !named || p.Rate != 200 {
		t.Fatalf("failed reload changed the table: %+v (named=%v)", p, named)
	}
	if len(hookTables) != 0 {
		t.Fatalf("failed reload ran %d hooks", len(hookTables))
	}

	// A good rewrite swaps the table and notifies.
	next := `{"tenants": [{"name": "acme", "class": "critical", "tokens": ["tok-a"], "rate": 9}]}`
	if err := os.WriteFile(path, []byte(next), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := src.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if p, named := src.Lookup("tok-a"); !named || p.Rate != 9 || p.Class != ClassCritical {
		t.Fatalf("post-reload profile = %+v (named=%v)", p, named)
	}
	if p, named := src.Lookup("tok-b"); named {
		t.Fatalf("removed tenant still resolves: %+v", p)
	}
	if len(hookTables) != 1 || hookTables[0] != src.Quotas() {
		t.Fatalf("hook saw %d tables", len(hookTables))
	}
}
