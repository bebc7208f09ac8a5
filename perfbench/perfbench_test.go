package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/gpu"
	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	// The tail percentile is trustworthy only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{200, 95, 10}, {199, 95, 9}, {240, 95, 12}, {30, 95, 1}, {10, 50, 5}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"gpushare/internal/mem/dram.(*Channel).Tick":  "mem.dram",
		"gpushare/internal/mem.(*System).Tick":        "mem",
		"gpushare/internal/smcore.(*SM).tryIssue":     "smcore",
		"gpushare/internal/stats.(*GPU).EncodeJSON":   "other",
		"runtime.mallocgc":                            "go-runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "go-runtime",
		"net/http.(*conn).serve":                      "http-json",
		"encoding/json.(*decodeState).object":         "http-json",
		"main.main":                                   "other",
		"gpushare/internal/fleet.(*Coordinator).tick": "fleet",
	} {
		if got := layerOf(packageOf(sym)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %q, want %q", sym, got, want)
		}
	}
}

// protoMsg is a minimal protobuf encoder for building test profiles.
type protoMsg struct{ b []byte }

func (m *protoMsg) varint(num int, v uint64) *protoMsg {
	m.b = binary.AppendUvarint(m.b, uint64(num)<<3)
	m.b = binary.AppendUvarint(m.b, v)
	return m
}

func (m *protoMsg) bytes(num int, data []byte) *protoMsg {
	m.b = binary.AppendUvarint(m.b, uint64(num)<<3|2)
	m.b = binary.AppendUvarint(m.b, uint64(len(data)))
	m.b = append(m.b, data...)
	return m
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestFoldProfileByLeafPackage(t *testing.T) {
	strs := []string{"", "gpushare/internal/mem/dram.(*Channel).Tick",
		"gpushare/internal/gpu.(*Sim).RunCtx", "runtime.mallocgc", "net/http.(*conn).serve"}
	p := &protoMsg{}
	// Samples: [location ids leaf first] -> [count, nanoseconds].
	p.bytes(2, (&protoMsg{}).bytes(1, packed(1, 2)).bytes(2, packed(5, 50e6)).b)
	p.bytes(2, (&protoMsg{}).bytes(1, packed(3, 2)).bytes(2, packed(2, 20e6)).b)
	// An unpacked sample: leaf location 4, values as separate fields.
	p.bytes(2, (&protoMsg{}).varint(1, 4).varint(1, 2).varint(2, 1).varint(2, 10e6).b)
	// Location 1 inlines dram.Tick into gpu.RunCtx: the first line is the leaf.
	p.bytes(4, (&protoMsg{}).varint(1, 1).
		bytes(4, (&protoMsg{}).varint(1, 10).b).
		bytes(4, (&protoMsg{}).varint(1, 20).b).b)
	p.bytes(4, (&protoMsg{}).varint(1, 2).bytes(4, (&protoMsg{}).varint(1, 20).b).b)
	p.bytes(4, (&protoMsg{}).varint(1, 3).bytes(4, (&protoMsg{}).varint(1, 30).b).b)
	p.bytes(4, (&protoMsg{}).varint(1, 4).bytes(4, (&protoMsg{}).varint(1, 40).b).b)
	for id, name := range map[uint64]uint64{10: 1, 20: 2, 30: 3, 40: 4} {
		p.bytes(5, (&protoMsg{}).varint(1, id).varint(2, name).b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	got, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"mem.dram": 5, "go-runtime": 2, "http-json": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded = %v, want %v", got, want)
	}
	m := map[string]float64{}
	cpuShares(got, m)
	if m["mem.dram.cpu_pct"] != 62.5 || m["gpu.cpu_pct"] != 0 {
		t.Errorf("shares = %v", m)
	}
	if _, err := foldProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestFoldRealProfile(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for i := 0; i < 50_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	byLayer, err := p.stop()
	if err != nil {
		t.Fatalf("fold a real profile: %v (sink %v)", err, x)
	}
	for l := range byLayer {
		found := false
		for _, k := range cpuLayers {
			found = found || k == l
		}
		if !found {
			t.Errorf("fold produced unknown layer %q", l)
		}
	}
}

func simulate(t *testing.T) *stats.GPU {
	t.Helper()
	spec, err := workloads.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.SMWorkers = 1
	sim, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := spec.Build(1)
	inst.Setup(sim.Mem)
	g, err := sim.Run(inst.Launch)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(sim.Mem); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDigestStable(t *testing.T) {
	d1, err := digest(simulate(t))
	if err != nil {
		t.Fatal(err)
	}
	g := simulate(t)
	d2, _ := digest(g)
	if d1 != d2 {
		t.Fatalf("two identical simulations digest differently: %s vs %s", d1, d2)
	}
	// A reply decoded from JSON must digest like the original.
	b, _ := g.EncodeJSON()
	back, err := stats.DecodeJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if d3, _ := digest(back); d3 != d1 {
		t.Errorf("JSON round trip changed the digest: %s vs %s", d3, d1)
	}
	g.Cycles++
	if d4, _ := digest(g); d4 == d1 {
		t.Error("a changed counter kept its digest")
	}

	ds := newDigestSet()
	if !ds.add("a", d1) || !ds.add("a", d1) {
		t.Error("a repeated equal digest counted as a mismatch")
	}
	if ds.add("a", "other") {
		t.Error("a differing repetition was not reported")
	}
	other := newDigestSet()
	other.add("a", d1)
	if ds.combined() != other.combined() {
		t.Error("combined digest depends on more than the label=digest set")
	}
}

func TestBuildMixSameSeedSameMix(t *testing.T) {
	const n = 200
	a, err := buildMix(7, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildMix(7, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different mixes")
	}
	c, _ := buildMix(8, n)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same mix")
	}

	// Every seed sends the same classes in the same proportions and
	// simulates the same set of jobs, each client starts with a fresh
	// job, repeats name a key the same client sent earlier, and fresh
	// keys never collide.
	var firstJobs map[string]bool
	for _, seed := range []int64{1, 2, 3} {
		mix, err := buildMix(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		classes := map[string]int{}
		fresh := map[string]bool{}
		perWorkload := map[string]int{}
		for c, seq := range mix {
			if seq[0].Class != "miss" {
				t.Errorf("seed %d client %d starts with a %s", seed, c, seq[0].Class)
			}
			sent := map[string]bool{}
			for _, rq := range seq {
				classes[rq.Class]++
				switch rq.Class {
				case "hit":
					if !sent[rq.Key] {
						t.Errorf("seed %d %s repeats a key its client never sent", seed, rq.ID)
					}
				default:
					if fresh[rq.Key] {
						t.Errorf("seed %d %s reuses a fresh key", seed, rq.ID)
					}
					fresh[rq.Key] = true
					if rq.Class == "miss" {
						var sub struct{ Workload string }
						json.Unmarshal(rq.Body, &sub)
						perWorkload[sub.Workload]++
					}
				}
				sent[rq.Key] = true
			}
		}
		if want := map[string]int{"miss": 120, "hit": 60, "tenancy": 20}; !reflect.DeepEqual(classes, want) {
			t.Errorf("seed %d classes = %v, want %v", seed, classes, want)
		}
		var counts []int
		for _, k := range perWorkload {
			counts = append(counts, k)
		}
		sort.Ints(counts)
		if len(counts) != len(svcCheap) || counts[len(counts)-1]-counts[0] > 1 {
			t.Errorf("seed %d fresh jobs per workload = %v, want balanced", seed, perWorkload)
		}
		if firstJobs == nil {
			firstJobs = fresh
		} else if !reflect.DeepEqual(fresh, firstJobs) {
			t.Errorf("seed %d simulates a different set of jobs than seed 1", seed)
		}
	}
}

func TestChromeTrace(t *testing.T) {
	tr := newTracer()
	tr.begin("service.request/miss", "service", "c0-001", 1)()
	tr.begin("runner.direct", "runner", "c0-001", 0)()
	b, err := tr.chromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args["id"] != "c0-001" || ev.Dur < 0 {
			t.Errorf("bad event %+v", ev)
		}
	}
	var nilTracer *tracer
	nilTracer.begin("x", "y", "", 0)()
	if nilTracer.count() != 0 || nilTracer.durations("x") != nil {
		t.Error("a nil tracer recorded something")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadRuns) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloadRuns))
	}
	for _, w := range bj.Workloads {
		if workloadRuns[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.Name || got[i].Unit != m.Unit || got[i].Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
