package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpushare/internal/config"
	"gpushare/internal/fleet"
	"gpushare/internal/runner"
	"gpushare/internal/server"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

const (
	svcClients = 2 // closed-loop clients, one tenant each
	svcWorkers = 2 // gserved workers behind gsched, one slot each
	svcRetries = 3 // resubmissions of a shed (429/503) request
	svcBlock   = 10
	// Each block of ten requests a client sends holds this many of each
	// class, in seeded order.
	svcMissPerBlock    = 6
	svcHitPerBlock     = 3
	svcTenancyPerBlock = 1
	// svcOverheadSample is how many misses the traced run re-runs
	// directly through a runner to split service overhead from
	// simulation time.
	svcOverheadSample = 20
	// tenancyQuota is the time-slice quantum of timeslice jobs, the one
	// the harness tenancy experiments use.
	tenancyQuota = 10_000
)

// svcCheap are the fresh-job workloads: each simulates in at most about
// 0.4 s at scale 1 on a 2-CPU host, under every configuration below.
var svcCheap = []string{"backprop", "CONV2", "NW1", "SRAD1", "backprop2", "BFS", "gaussian", "NN"}

// svcPairs are the two-tenant tenancy mixes: one of the two cheapest
// kernels beside another cheap one.
var svcPairs = [][2]string{
	{"gaussian", "backprop2"}, {"gaussian", "CONV2"}, {"gaussian", "SRAD1"},
	{"gaussian", "NN"}, {"gaussian", "BFS"}, {"gaussian", "backprop"},
	{"backprop2", "CONV2"}, {"backprop2", "SRAD1"}, {"backprop2", "NN"},
	{"backprop2", "BFS"}, {"backprop2", "backprop"}, {"backprop2", "NW1"},
}

// svcReq is one request of the seeded mix.
type svcReq struct {
	ID    string // "c<client>-<index>", shared by every span of the request
	Class string // miss | hit | tenancy
	Key   string // the job's content key
	Body  []byte // fleet.SubmitRequest JSON
}

// svcConfigs are the configurations fresh jobs draw from: every
// scheduler, sharing off or on at two thresholds (in the workload's
// paper sharing mode), and every L1 replacement policy. The order is
// fixed and varies the scheduler fastest, so any prefix is a broad mix.
func svcConfigs(spec *workloads.Spec) []config.Config {
	mode := config.ShareRegisters
	if spec.Set == workloads.Set2 {
		mode = config.ShareScratchpad
	}
	scheds := []config.SchedPolicy{config.SchedLRR, config.SchedGTO, config.SchedTwoLevel, config.SchedOWF}
	thresholds := []float64{0, 0.1, 0.5}
	l1s := []config.CachePolicy{config.PolicyLRU, config.PolicyFIFO, config.PolicyRand}
	var out []config.Config
	for i := 0; i < len(scheds)*len(thresholds)*len(l1s); i++ {
		cfg := config.Default()
		cfg.Sched = scheds[i%len(scheds)]
		if t := thresholds[i/len(scheds)%len(thresholds)]; t > 0 {
			cfg.Sharing, cfg.T = mode, t
		}
		cfg.L1Policy = l1s[i/(len(scheds)*len(thresholds))]
		out = append(out, cfg)
	}
	return out
}

// buildMix derives the two clients' request sequences from the seed: n
// requests in all, in blocks of ten holding six fresh simulations,
// three repeats of a key the same client already completed, and one
// two-tenant tenancy job. The set of fresh and tenancy jobs depends on
// n alone, so every seed simulates the same work; the seed picks the
// order and which keys repeat.
func buildMix(seed int64, n int) ([svcClients][]svcReq, error) {
	rng := rand.New(rand.NewSource(seed))
	var mix [svcClients][]svcReq
	blocks := max(n/(svcBlock*svcClients), 1)

	// Fresh jobs cycle through the cheap workloads, each taking the next
	// configuration of its catalogue.
	var fresh []fleet.SubmitRequest
	for i := 0; i < blocks*svcClients*svcMissPerBlock; i++ {
		spec, err := workloads.ByName(svcCheap[i%len(svcCheap)])
		if err != nil {
			return mix, err
		}
		cfgs := svcConfigs(spec)
		k := i / len(svcCheap)
		if k >= len(cfgs) {
			return mix, fmt.Errorf("service mix: more fresh jobs than distinct configurations; lower --seconds")
		}
		fresh = append(fresh, fleet.SubmitRequest{SubmitRequest: server.SubmitRequest{
			Workload: spec.Name, Scale: 1, Config: &cfgs[k]}})
	}
	// Tenancy jobs take the pairs in rounds that alternate co-scheduling
	// (a packing fixed per pair and round) and time slicing, so no two
	// share a key.
	var tenancies []fleet.SubmitRequest
	for i := 0; i < blocks*svcClients*svcTenancyPerBlock; i++ {
		pi, round := i%len(svcPairs), i/len(svcPairs)
		p := svcPairs[pi]
		spec := &tenancy.Spec{Tenants: []tenancy.TenantSpec{{Workload: p[0]}, {Workload: p[1]}}}
		switch round % 4 {
		case 0, 2:
			spec.Policy = tenancy.CoSched
			spec.Packing = []tenancy.Packing{tenancy.FirstFit, tenancy.BestFit, tenancy.WorstFit}[(pi+round/2)%3]
		case 1:
			spec.Policy, spec.QuotaCycles = tenancy.TimeSlice, tenancyQuota
		case 3:
			spec.Policy, spec.QuotaCycles = tenancy.TimeSlice, 2*tenancyQuota
		}
		cfg := config.Default()
		tenancies = append(tenancies, fleet.SubmitRequest{SubmitRequest: server.SubmitRequest{
			Scale: 1, Config: &cfg, Tenancy: spec}})
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	rng.Shuffle(len(tenancies), func(i, j int) { tenancies[i], tenancies[j] = tenancies[j], tenancies[i] })

	for b := 0; b < blocks; b++ {
		for c := 0; c < svcClients; c++ {
			var classes []string
			for i := 0; i < svcMissPerBlock; i++ {
				classes = append(classes, "miss")
			}
			for i := 0; i < svcHitPerBlock; i++ {
				classes = append(classes, "hit")
			}
			for i := 0; i < svcTenancyPerBlock; i++ {
				classes = append(classes, "tenancy")
			}
			rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
			if b == 0 && classes[0] != "miss" {
				// A client's first request has nothing to repeat.
				for i, cl := range classes {
					if cl == "miss" {
						classes[0], classes[i] = classes[i], classes[0]
						break
					}
				}
			}
			for _, class := range classes {
				var rq svcReq
				switch class {
				case "hit":
					var earlier []svcReq
					for _, r := range mix[c] {
						if r.Class != "hit" {
							earlier = append(earlier, r)
						}
					}
					rq = earlier[rng.Intn(len(earlier))]
				default:
					var sub fleet.SubmitRequest
					if class == "miss" {
						sub, fresh = fresh[0], fresh[1:]
					} else {
						sub, tenancies = tenancies[0], tenancies[1:]
					}
					sub.Tenant = fmt.Sprintf("tenant-%c", 'a'+c)
					key, err := runner.Job{Workload: sub.Workload, Config: *sub.Config, Scale: sub.Scale, Tenancy: sub.Tenancy}.Key()
					if err != nil {
						return mix, err
					}
					body, err := json.Marshal(sub)
					if err != nil {
						return mix, err
					}
					rq = svcReq{Key: key, Body: body}
				}
				rq.Class = class
				rq.ID = fmt.Sprintf("c%d-%03d", c, len(mix[c]))
				mix[c] = append(mix[c], rq)
			}
		}
	}
	return mix, nil
}

// stack is one in-process deployment: gsched fronting gserved workers,
// all on loopback with their deployed defaults.
type stack struct {
	dir   string
	srvs  []*server.Server
	https []*http.Server
	coord *fleet.Coordinator
	url   string
	urls  []string
	wg    sync.WaitGroup
}

// startStack starts the workers (each with a fresh on-disk result
// cache) and the coordinator, and returns once every one of them
// answers /readyz.
func startStack(parent string) (*stack, error) {
	dir, err := os.MkdirTemp(parent, "service-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	var workers []string
	for i := 0; i < svcWorkers; i++ {
		srv := server.New(server.Options{Workers: 1, SMWorkers: 1,
			Runner: runner.Options{CacheDir: filepath.Join(dir, fmt.Sprintf("worker%d", i))}})
		st.srvs = append(st.srvs, srv)
		u, err := st.serve(srv.Handler())
		if err != nil {
			st.stop()
			return nil, err
		}
		workers = append(workers, u)
	}
	st.coord, err = fleet.New(fleet.Options{Workers: workers, Slots: 1})
	if err != nil {
		st.stop()
		return nil, err
	}
	if st.url, err = st.serve(st.coord.Handler()); err != nil {
		st.stop()
		return nil, err
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range st.urls {
		for {
			resp, err := hc.Get(u + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				st.stop()
				return nil, fmt.Errorf("service: %s not ready after 10s", u)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return st, nil
}

func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	u := "http://" + ln.Addr().String()
	st.urls = append(st.urls, u)
	return u, nil
}

// stop drains the coordinator, shuts every listener, drains the
// workers, waits for every serving goroutine and removes the caches.
func (st *stack) stop() {
	if st.coord != nil {
		if err := st.coord.Drain(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: service: %v\n", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.https) - 1; i >= 0; i-- {
		_ = st.https[i].Shutdown(ctx)
	}
	for _, srv := range st.srvs {
		if err := srv.Drain(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: service: %v\n", err)
		}
	}
	st.wg.Wait()
	os.RemoveAll(st.dir)
}

// svcReply is one request's outcome.
type svcReply struct {
	req     svcReq
	lat     time.Duration
	done    bool
	shed    int
	stats   *stats.GPU
	problem string
}

// send posts one request with ?wait=1 and resubmits it, after the
// advertised Retry-After (at most 2 s), while it is shed.
func send(hc *http.Client, url string, rq svcReq) svcReply {
	r := svcReply{req: rq}
	t0 := time.Now()
	r.problem = func() string {
		for attempt := 0; ; attempt++ {
			resp, err := hc.Post(url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(rq.Body))
			if err != nil {
				return err.Error()
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err.Error()
			}
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				r.shed++
				if attempt == svcRetries {
					return fmt.Sprintf("still shed after %d retries", svcRetries)
				}
				wait := 100 * time.Millisecond
				if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
					wait = min(time.Duration(s)*time.Second, 2*time.Second)
				}
				time.Sleep(wait)
				continue
			}
			var st fleet.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				return fmt.Sprintf("HTTP %d: undecodable reply: %v", resp.StatusCode, err)
			}
			if resp.StatusCode != http.StatusOK || st.State != server.StateDone || st.Stats == nil {
				return fmt.Sprintf("HTTP %d, state %q: %s", resp.StatusCode, st.State, st.Error)
			}
			if st.Key != rq.Key {
				return fmt.Sprintf("reply key %s, want %s", st.Key, rq.Key)
			}
			r.done, r.stats = true, st.Stats
			return ""
		}
	}()
	r.lat = time.Since(t0)
	return r
}

// svcResult is one pass of the whole request sequence.
type svcResult struct {
	setup   time.Duration
	wall    time.Duration
	allocMB float64
	replies []svcReply
	dedup   float64
	hitRate float64
}

// serviceOnce starts a fresh stack and drives the mix through it with
// one closed-loop client per sequence.
func serviceOnce(tr *tracer, tmp string, mix [svcClients][]svcReq) (*svcResult, error) {
	r := &svcResult{}
	t0 := time.Now()
	endSetup := tr.begin("service.setup", "service", "", 0)
	st, err := startStack(tmp)
	endSetup()
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	defer st.stop()

	alloc0 := heapAllocated()
	start := time.Now()
	replies := make([][]svcReply, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 2 * time.Minute}
			defer hc.CloseIdleConnections()
			for _, rq := range mix[c] {
				end := tr.begin("service.request/"+rq.Class, "service", rq.ID, c+1)
				replies[c] = append(replies[c], send(hc, st.url, rq))
				end()
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.allocMB = float64(heapAllocated()-alloc0) / 1e6
	for _, rs := range replies {
		r.replies = append(r.replies, rs...)
	}

	var sz fleet.Statusz
	if err := getJSON(st.url+"/statusz", &sz); err != nil {
		return nil, err
	}
	r.dedup = ratio(float64(sz.Deduped), float64(sz.Accepted+sz.Deduped))
	var hits, done int64
	for _, srv := range st.srvs {
		c := srv.Runner().Counters()
		hits += c.Hits()
		done += c.Done
	}
	r.hitRate = ratio(float64(hits), float64(done))
	return r, nil
}

func getJSON(url string, v any) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// recordService checks every reply: done, the right key, and a repeat's
// statistics byte-identical to the first reply for its key.
func (b *bench) recordService(r *svcResult) {
	for _, rp := range r.replies {
		b.attempted++
		if !rp.done {
			b.failf("%s (%s): %s", rp.req.ID, rp.req.Class, rp.problem)
			continue
		}
		d, err := digest(rp.stats)
		if err != nil {
			b.failf("%s: %v", rp.req.ID, err)
			continue
		}
		if !b.digests.add(rp.req.Key, d) {
			b.failf("%s (%s): statistics differ from the first reply for key %s", rp.req.ID, rp.req.Class, rp.req.Key)
		}
	}
}

// svcRequests sizes the sequence: about eight requests per second of
// budget, and never fewer than 200 so at least ten samples lie beyond
// p95.
func svcRequests(budget time.Duration) int {
	n := int(budget.Seconds()) * 8
	if n < 200 {
		n = 200
	}
	return n / (svcBlock * svcClients) * (svcBlock * svcClients)
}

func latencies(replies []svcReply, class string) []float64 {
	var out []float64
	for _, rp := range replies {
		if rp.done && (class == "" || rp.req.Class == class) {
			out = append(out, ms(rp.lat))
		}
	}
	return out
}

func runService(b *bench) error {
	mix, err := buildMix(b.seed, svcRequests(b.seconds))
	if err != nil {
		return err
	}
	if b.traced {
		var r *svcResult
		tr, err := b.tracedRun(func(tr *tracer) (time.Duration, error) {
			var err error
			r, err = serviceOnce(tr, b.tmpDir, mix)
			if err != nil {
				return 0, err
			}
			b.recordService(r)
			return r.wall, nil
		})
		if err != nil {
			return err
		}
		var sc simCounters
		var shed int
		for _, rp := range r.replies {
			shed += rp.shed
			if rp.done && rp.req.Class != "hit" {
				sc.add(rp.stats, config.Default().NumSchedulers)
			}
		}
		sc.into(b.layer)
		b.layer["service.hit_p50_ms"] = median(latencies(r.replies, "hit"))
		b.layer["service.miss_p50_ms"] = median(latencies(r.replies, "miss"))
		b.layer["service.tenancy_p50_ms"] = median(latencies(r.replies, "tenancy"))
		b.layer["service.dedup_share"] = r.dedup
		b.layer["service.shed"] = float64(shed)
		b.layer["runner.cache_hit_rate"] = r.hitRate
		return b.serviceOverhead(tr, r)
	}

	// Set-up is sampled on throwaway deployments before and after the
	// measured one too.
	var setups []float64
	sampleSetup := func() error {
		for i := 0; i < setupBatch; i++ {
			t0 := time.Now()
			st, err := startStack(b.tmpDir)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			st.stop()
		}
		return nil
	}
	if err := sampleSetup(); err != nil {
		return err
	}
	r, err := serviceOnce(nil, b.tmpDir, mix)
	if err != nil {
		return err
	}
	setups = append(setups, r.setup.Seconds())
	if err := sampleSetup(); err != nil {
		return err
	}
	b.recordService(r)
	all := latencies(r.replies, "")
	var cycles int64
	for _, rp := range r.replies {
		if rp.done && rp.req.Class != "hit" {
			cycles += rp.stats.Cycles
		}
	}
	b.e2e["wall_s"] = r.wall.Seconds()
	b.e2e["sim_cycles_per_s"] = float64(cycles) / r.wall.Seconds()
	b.e2e["done_p50_ms"] = percentile(all, 50)
	b.e2e["done_p95_ms"] = percentile(all, 95)
	b.e2e["jobs_per_s"] = float64(len(all)) / r.wall.Seconds()
	b.e2e["alloc_mb"] = r.allocMB
	b.e2e["setup_s"] = median(setups)
	counts := map[string]int{}
	for _, rp := range r.replies {
		counts[rp.req.Class]++
	}
	b.notef("closed loop: %d clients, %d requests (%d miss, %d hit, %d tenancy) through gsched + %d gserved workers in %.2f s",
		svcClients, len(r.replies), counts["miss"], counts["hit"], counts["tenancy"], svcWorkers, r.wall.Seconds())
	b.notef("done latency: %d samples; %d lie beyond p95; p50 by class: miss %.1f ms, hit %.1f ms, tenancy %.1f ms",
		len(all), beyond(len(all), 95), median(latencies(r.replies, "miss")),
		median(latencies(r.replies, "hit")), median(latencies(r.replies, "tenancy")))
	b.gainProbe()
	return nil
}

// serviceOverhead re-runs the first misses directly through a runner,
// after the traced pass and outside its profile, and reports how much
// longer the service took for the same job than the simulation alone.
func (b *bench) serviceOverhead(tr *tracer, r *svcResult) error {
	var misses []svcReply
	for _, rp := range r.replies {
		if rp.done && rp.req.Class == "miss" {
			misses = append(misses, rp)
		}
	}
	sort.Slice(misses, func(i, j int) bool { return misses[i].req.ID < misses[j].req.ID })
	if len(misses) > svcOverheadSample {
		misses = misses[:svcOverheadSample]
	}
	rn := runner.New(runner.Options{Workers: 1})
	var over, direct []float64
	var warpInstrs int64
	for _, rp := range misses {
		var sub fleet.SubmitRequest
		if err := json.Unmarshal(rp.req.Body, &sub); err != nil {
			return err
		}
		cfg := *sub.Config
		cfg.SMWorkers = 1
		t0 := time.Now()
		end := tr.begin("runner.direct", "runner", rp.req.ID, 0)
		res := rn.Do(runner.Job{Workload: sub.Workload, Config: cfg, Scale: sub.Scale})
		end()
		d := time.Since(t0)
		if res.Err != nil {
			return fmt.Errorf("direct re-run of %s: %w", rp.req.ID, res.Err)
		}
		direct = append(direct, ms(d))
		over = append(over, ms(rp.lat)-ms(d))
		warpInstrs += res.Stats.TotalWarpInstrs()
	}
	b.layer["service.overhead_p50_ms"] = median(over)
	b.layer["gpu.host_ns_per_warp_instr"] = ratio(sum(direct)*1e6, float64(warpInstrs))
	b.notef("service overhead: %d misses re-run directly, p50 %.1f ms over the simulation alone", len(over), median(over))
	b.gainProbe()
	return b.writeTrace(tr)
}
