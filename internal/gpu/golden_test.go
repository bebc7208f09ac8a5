package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// update re-records testdata/golden_stats.json. It refuses to rewrite a
// cell whose digest changed while Version did not: a result change must
// come with a simulator-version bump, or result caches keyed on Version
// would keep serving the old numbers.
var update = flag.Bool("update", false, "re-record testdata/golden_stats.json (requires a gpu.Version bump for changed cells)")

const goldenPath = "testdata/golden_stats.json"

// goldenEntry pins one cell: the SHA-256 of its canonical stats
// encoding, stamped with the simulator version that produced it.
type goldenEntry struct {
	Version string `json:"version"`
	SHA256  string `json:"sha256"`
}

// goldenConfigs are the matrix's three configurations, built as the
// harness builds the paper's Unshared-LRR, Shared-OWF-Unroll-Dyn
// (registers) and Shared-OWF (scratchpad) configurations.
var goldenConfigs = []struct {
	name string
	cfg  func() config.Config
}{
	{"unshared-lrr", config.Default},
	{"reg-owf-unroll-dyn", func() config.Config {
		cfg := config.Default()
		cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
		cfg.Sched = config.SchedOWF
		cfg.UnrollRegs, cfg.DynWarp = true, true
		return cfg
	}},
	{"smem-owf", func() config.Config {
		cfg := config.Default()
		cfg.Sharing, cfg.T = config.ShareScratchpad, 0.1
		cfg.Sched = config.SchedOWF
		return cfg
	}},
}

func statsDigest(tb testing.TB, g *stats.GPU) string {
	tb.Helper()
	j, err := g.EncodeJSON()
	if err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:])
}

func loadGolden(tb testing.TB) map[string]goldenEntry {
	tb.Helper()
	b, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *update {
		return map[string]goldenEntry{}
	}
	if err != nil {
		tb.Fatal(err)
	}
	m := map[string]goldenEntry{}
	if err := json.Unmarshal(b, &m); err != nil {
		tb.Fatalf("%s: %v", goldenPath, err)
	}
	return m
}

// TestGoldenStats is the absolute pin on simulated results: every
// workload at scale 1 under three configurations, plus one two-tenant
// cell per tenancy policy, must hash to its recorded digest. The
// determinism tests only compare engine modes with each other; this
// catches a change that shifts every mode equally.
func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	want := loadGolden(t)
	var mu sync.Mutex
	got := map[string]string{}
	record := func(t *testing.T, name string, g *stats.GPU) {
		d := statsDigest(t, g)
		mu.Lock()
		got[name] = d
		mu.Unlock()
		if *update {
			return
		}
		e, ok := want[name]
		switch {
		case !ok:
			t.Fatalf("no golden entry for %s (run with -update)", name)
		case e.Version != Version:
			t.Fatalf("golden entry recorded under %s, simulator is %s (run with -update)", e.Version, Version)
		case e.SHA256 != d:
			t.Fatalf("stats digest %s, golden %s: simulated results changed", d, e.SHA256)
		}
	}

	t.Run("cells", func(t *testing.T) {
		for _, w := range workloads.All() {
			for _, c := range goldenConfigs {
				name := w.Name + "/" + c.name
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := c.cfg()
					cfg.SMWorkers = 1
					record(t, name, runWorkload(t, w.Name, cfg, 1))
				})
			}
		}
		for _, p := range []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice} {
			name := "tenancy/" + p.String()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := config.Default()
				cfg.SMWorkers = 1
				record(t, name, runMulti(t, cfg, twoTenantSpec(p), 1))
			})
		}
	})

	if !*update || t.Failed() {
		return
	}
	for name, d := range got {
		if e, ok := want[name]; ok && e.Version == Version && e.SHA256 != d {
			t.Errorf("%s: digest changed from %s to %s under unchanged version %s; bump gpu.Version to re-record",
				name, e.SHA256, d, Version)
		}
	}
	if t.Failed() {
		return
	}
	for name, d := range got {
		want[name] = goldenEntry{Version: Version, SHA256: d}
	}
	b, err := json.MarshalIndent(want, "", "  ") // map keys encode sorted
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
