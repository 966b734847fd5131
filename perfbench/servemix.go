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
	"sync"
	"time"

	"polarstar/internal/serve"
	"polarstar/internal/sim"
)

// serve-mix drives psserve's HTTP handler on a loopback listener with a
// closed loop of serveClients synchronous callers: each waits for its
// reply before sending the next request. Of every warmEvery requests a
// client sends, the first is a new seed on serveSpec (a cold miss) and the
// rest repeat a key the same client already completed (warm hits). Cold
// requests cycle through the five classes of serveKinds in equal shares.
// A fixed pattern rather than a coin flip keeps the cold share, which sets
// the run's throughput, equal in every run.
const (
	serveSpec    = "ps-iq-small"
	serveClients = 2
	serveLoad    = 0.3
	serveCycles  = 1000
	warmEvery    = 10
	repairDelay  = 60
	// refColdPerClient is how many cold results per client the default
	// seed pins in reference.json.
	refColdPerClient = 10
	// serveSetupReps: starting psserve takes well under a millisecond, so
	// its median needs a few hundred samples to hold still from run to
	// run. There is next to no garbage to collect between these reps, and
	// a forced collection would double the time of the start that follows
	// it.
	serveSetupReps = 301
)

// coldReq is one generated cold request.
type coldReq struct {
	kind string
	body []byte
	id   int64 // request id shared by the request's spans
}

// served is a completed cold request: its request and response bodies.
type served struct {
	coldReq
	resp    []byte
	latency time.Duration
	result  serve.EvalResult
}

// loopResult is what one closed loop measured.
type loopResult struct {
	cold, warm []float64 // latencies, ms
	decodeUS   []float64 // traced loop: request decoding times, µs
	completed  []served  // successful cold requests
	requests   int
	wall       time.Duration
	refs       map[string]serve.EvalResult
}

// genColdReq makes client c's k-th cold request of loop `loop`. The seed
// is a hash of the run seed and the request's position, so every request
// of a run is distinct and the same run seed regenerates the same ones.
func genColdReq(runSeed int64, loop, c, k int, edges [][2]int) coldReq {
	h := mix64(uint64(runSeed), uint64(loop)<<40|uint64(c)<<32|uint64(k))
	seed := int64(h>>2) + 1
	kind := serveKinds[(k+c)%len(serveKinds)]
	req := map[string]any{
		"spec": serveSpec, "load": serveLoad, "cycles": serveCycles, "seed": seed, "workers": 1,
	}
	switch kind {
	case "fault-min", "fault-mp-ugal":
		req["routing"] = kind[len("fault-"):]
		req["fault_plan"] = genPlan(rand.New(rand.NewSource(seed)), edges)
		req["repair_delay"] = repairDelay
	default:
		req["routing"] = kind
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	return coldReq{kind: kind, body: body, id: int64(loop+1)<<40 | int64(c)<<32 | int64(k)}
}

// genPlan draws two link-downs and one link-up (of the first downed link)
// inside the measurement window [serveCycles/2, 3*serveCycles/2).
func genPlan(rng *rand.Rand, edges [][2]int) string {
	a := edges[rng.Intn(len(edges))]
	b := edges[rng.Intn(len(edges))]
	for b == a {
		b = edges[rng.Intn(len(edges))]
	}
	w := serveCycles / 2
	down1 := w + rng.Intn(serveCycles/4)
	down2 := w + serveCycles/4 + rng.Intn(serveCycles/4)
	up := down1 + serveCycles/4 + rng.Intn(serveCycles/4)
	return fmt.Sprintf("%d link-down %d %d\n%d link-down %d %d\n%d link-up %d %d\n",
		down1, a[0], a[1], down2, b[0], b[1], up, a[0], a[1])
}

// mix64 hashes a and b into one well-mixed word (splitmix64's finalizer).
func mix64(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// service is one running psserve: the Service behind an http.Server on a
// loopback listener.
type service struct {
	svc  *serve.Service
	srv  *http.Server
	url  string
	done chan error // receives Serve's result once it returns
}

// startService starts the service and waits until /healthz answers 200.
func startService(client *http.Client) (*service, error) {
	s := &service{svc: serve.New(serve.Config{Workers: 2}), done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	s.url = "http://" + ln.Addr().String()
	go func() { s.done <- s.srv.Serve(ln) }()
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.svc.Close()
			return nil, fmt.Errorf("psserve stopped before it was healthy: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the server down, waits for it, and drains the service.
func (s *service) stop() {
	// Shutdown only fails on a cancelled context or a listener that will
	// not close; either way Serve has returned once done yields.
	_ = s.srv.Shutdown(context.Background())
	<-s.done
	s.svc.Close()
}

// post sends one eval request and returns the status, X-Cache header and
// body.
func post(client *http.Client, url string, body []byte) (int, string, []byte, error) {
	resp, err := client.Post(url+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, err
}

func serveMix(r *run) {
	spec, err := sim.NewSpec(serveSpec)
	if err != nil {
		r.fail("NewSpec(%s): %v", serveSpec, err)
		return
	}
	edges := spec.Graph.Edges()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer client.CloseIdleConnections()

	var (
		svc    *service
		setups []float64
	)
	for rep := 0; rep < serveSetupReps; rep++ {
		if svc != nil {
			svc.stop()
		}
		id := r.tr.start("serve.setup", 0, 0)
		t0 := time.Now()
		svc, err = startService(client)
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(id)
		if err != nil {
			r.fail("start psserve: %v", err)
			return
		}
	}
	defer svc.stop()
	r.set("setup_s", median(setups))

	base := runLoop(r, client, svc.url, 0, edges, nil, nil)
	for k, v := range base.refs {
		r.outputs[k] = v
	}
	r.set("serve_cold_p50_ms", percentile(base.cold, 50))
	r.set("serve_cold_p90_ms", percentile(base.cold, 90))
	r.set("serve_warm_p50_ms", percentile(base.warm, 50))
	r.set("serve_warm_p99_ms", percentile(base.warm, 99))
	r.set("serve_req_per_s", float64(base.requests)/base.wall.Seconds())
	r.set("ops_per_s", float64(base.requests)/base.wall.Seconds())
	r.set("op_ms", percentile(base.cold, 50))
	if !r.traced {
		r.set("peak_rss_mb", peakRSSMiB())
		return
	}

	// Traced loop, on fresh keys, with a span per request. Each client
	// follows a cold reply with the direct run of the same request, so the
	// two are timed under the same host conditions.
	var (
		mu   sync.Mutex
		outs []directOut
	)
	tl := runLoop(r, client, svc.url, 1, edges, r.tr, func(s served) {
		if o, ok := directRun(r, spec, s); ok {
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}
	})
	r.set("trace.overhead_frac", tl.meanLatency()/base.meanLatency()-1)
	st := svc.svc.Stats()
	r.set("serve.hit_frac", float64(st.CacheHits)/float64(max(st.Requests, 1)))
	r.set("serve.misses", float64(st.CacheMisses))
	r.set("serve.joined", float64(st.Joined))
	r.set("serve.shed", float64(st.Shed))
	r.set("serve.cached_bytes", float64(st.CachedBytes))
	r.set("serve.decode_us", median(tl.decodeUS))
	setDirectMetrics(r, outs)
	serveShares(r, tl)
}

// meanLatency is the mean client latency of the loop's requests, in ms.
func (l loopResult) meanLatency() float64 {
	var sum float64
	for _, ms := range l.cold {
		sum += ms
	}
	for _, ms := range l.warm {
		sum += ms
	}
	return sum / float64(len(l.cold)+len(l.warm))
}

// serveShares sets the <layer>.self_frac of serve-mix by splitting the
// client latency of the traced loop's requests into layers. The program
// layers a cold request called (sim, route, traffic) get the self time of
// their spans in the request's direct run (plan parse and RunPoint's
// steps). The service (serve) gets the rest of the cold latency, summed
// over all cold requests, and the whole latency of every warm request.
// The sums are split, not each request, so that the jitter of single
// requests evens out. Set-up and decoding spans are not part of a
// request's latency and are left out.
func serveShares(r *run, tl loopResult) {
	cold := map[int64]bool{}
	var coldLatency time.Duration
	for _, s := range tl.completed {
		cold[s.id] = true
		coldLatency += s.latency
	}
	by := map[string]time.Duration{}
	var direct time.Duration
	for i, d := range r.tr.selfTimes() {
		if sp := r.tr.spans[i]; cold[sp.Req] && layerOf(sp) != "serve" {
			by[layerOf(sp)] += d
			direct += d
		}
	}
	by["serve"] = max(coldLatency-direct, 0)
	for _, ms := range tl.warm {
		by["serve"] += time.Duration(ms * 1e6)
	}
	setShares(r, by)
}

// runLoop runs the closed loop for the run's seconds and checks every
// response: status 200, X-Cache miss on a new key and hit on a repeated
// one, and each warm body byte-equal to its cold body. afterCold (nil:
// none) runs in the client's turn after each successful cold request.
func runLoop(r *run, client *http.Client, url string, loop int, edges [][2]int, tr *tracer, afterCold func(served)) loopResult {
	var (
		mu  sync.Mutex
		res = loopResult{refs: map[string]serve.EvalResult{}}
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(mix64(uint64(r.seed), uint64(loop)<<32|uint64(c)))))
			var done []served
			var cold, warm, decode []float64
			issued := 0 // cold requests sent, the index of the next one
			for op := 0; !r.deadline(start); op++ {
				r.attempt()
				if op%warmEvery != 0 && len(done) > 0 {
					prev := done[rng.Intn(len(done))]
					var status int
					var cache string
					var body []byte
					var err error
					d := tr.do("serve.request", 0, prev.id, func(int) { status, cache, body, err = post(client, url, prev.body) })
					switch {
					case err != nil:
						r.fail("warm %s request: %v", prev.kind, err)
					case status != http.StatusOK || cache != "hit":
						r.fail("warm %s request: status %d, X-Cache %q", prev.kind, status, cache)
					case !bytes.Equal(body, prev.resp):
						r.fail("warm %s request: body differs from its cold body", prev.kind)
					default:
						warm = append(warm, 1000*d.Seconds())
					}
					continue
				}
				cr := genColdReq(r.seed, loop, c, issued, edges)
				issued++
				if tr != nil {
					decode = append(decode, decodeSpan(r, cr))
				}
				s := served{coldReq: cr}
				var status int
				var cache string
				var err error
				s.latency = tr.do("serve.request", 0, cr.id, func(int) { status, cache, s.resp, err = post(client, url, cr.body) })
				if err == nil && (status != http.StatusOK || cache != "miss") {
					err = fmt.Errorf("status %d, X-Cache %q: %s", status, cache, s.resp)
				}
				if err == nil {
					err = checkEvalResponse(cr, s.resp, &s.result)
				}
				if err != nil {
					r.fail("cold %s request %s: %v", cr.kind, cr.body, err)
					continue
				}
				cold = append(cold, 1000*s.latency.Seconds())
				done = append(done, s)
				if afterCold != nil {
					afterCold(s)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.cold = append(res.cold, cold...)
			res.warm = append(res.warm, warm...)
			res.decodeUS = append(res.decodeUS, decode...)
			res.requests += len(cold) + len(warm)
			res.completed = append(res.completed, done...)
			for _, s := range done {
				if k := int(s.id & 0xffffffff); loop == 0 && k < refColdPerClient {
					res.refs[fmt.Sprintf("cold/c%d/k%d", c, k)] = s.result
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// checkEvalResponse parses a cold response body and checks what holds for
// every request at any seed.
func checkEvalResponse(cr coldReq, body []byte, out *serve.EvalResult) error {
	var resp serve.EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("response: %v", err)
	}
	res := resp.Result
	*out = res
	switch {
	case len(resp.Key) != 16:
		return fmt.Errorf("response key %q", resp.Key)
	case res.Load != serveLoad || !(res.Throughput > 0) || !(res.DeliveredFrac > 0 && res.DeliveredFrac <= 1):
		return fmt.Errorf("implausible result %+v", res)
	case (cr.kind == "min" || cr.kind == "ugal" || cr.kind == "mp-ugal") && (res.Lost != 0 || res.Dropped != 0 || res.Retried != 0):
		return fmt.Errorf("healthy run reports faults: %+v", res)
	}
	return nil
}

// decodeSpan times the service's request decoding on a cold body:
// DecodeEvalRequest, Normalize, the plan parse and Key. It returns µs.
func decodeSpan(r *run, cr coldReq) float64 {
	var err error
	d := r.tr.do("serve.decode", 0, cr.id, func(int) {
		var req serve.EvalRequest
		if req, err = serve.DecodeEvalRequest(bytes.NewReader(cr.body)); err != nil {
			return
		}
		if err = req.Normalize(); err != nil {
			return
		}
		var plan *sim.Plan
		if req.FaultPlan != "" {
			if plan, err = sim.ParsePlan(req.FaultPlan); err != nil {
				return
			}
		}
		req.Key(plan)
	})
	if err != nil {
		r.fail("decode %s: %v", cr.body, err)
	}
	return 1e6 * d.Seconds()
}

// directOut is what the direct run of one cold request measured.
type directOut struct {
	served
	overheadMS, buildMS, parseUS float64
}

// directRun runs a cold request of the traced loop again as a direct
// sim.RunPoint, split into its public steps, and checks that the service
// answered the same Result.
func directRun(r *run, spec *sim.Spec, s served) (directOut, bool) {
	o := directOut{served: s}
	r.attempt()
	req, err := serve.DecodeEvalRequest(bytes.NewReader(s.body))
	if err == nil {
		err = req.Normalize()
	}
	if err != nil {
		r.fail("direct %s: %v", s.kind, err)
		return o, false
	}
	params := sim.DefaultParams(req.Seed)
	params.Warmup, params.Measure, params.Drain = req.Cycles/2, req.Cycles, req.Cycles*3/2
	params.Workers = req.Workers
	params.Lanes = req.Lanes
	params.RepairDelay = req.RepairDelay
	if req.FaultPlan != "" {
		d := r.tr.do("sim.plan_parse", 0, s.id, func(int) {
			if params.Plan, err = sim.ParsePlan(req.FaultPlan); err == nil {
				err = params.Plan.Validate(spec.Graph)
			}
		})
		if err != nil {
			r.fail("direct %s plan: %v", s.kind, err)
			return o, false
		}
		o.parseUS = 1e6 * d.Seconds()
	}
	t0 := time.Now()
	res, steps, err := tracedRunPoint(r.tr, 0, s.id, s.kind, spec, routingMode(req.Routing), req.Pattern, req.Load, params)
	direct := time.Since(t0)
	if err != nil {
		r.fail("direct %s: %v", s.kind, err)
		return o, false
	}
	if got := toEvalResult(res); got != s.result {
		r.fail("direct %s: RunPoint %+v, service answered %+v", s.kind, got, s.result)
		return o, false
	}
	o.overheadMS = 1000 * (s.latency - direct).Seconds()
	o.buildMS = 1000 * steps["route.routing"].Seconds()
	return o, true
}

// setDirectMetrics sets the per-class and per-request metrics of the
// direct runs.
func setDirectMetrics(r *run, outs []directOut) {
	var overhead, parse []float64
	lat := map[string][]float64{}
	build := map[string][]float64{}
	faults := map[string][][3]float64{}
	for _, o := range outs {
		lat[o.kind] = append(lat[o.kind], 1000*o.latency.Seconds())
		build[o.kind] = append(build[o.kind], o.buildMS)
		overhead = append(overhead, o.overheadMS)
		if o.parseUS > 0 {
			parse = append(parse, o.parseUS)
			faults[o.kind] = append(faults[o.kind], [3]float64{float64(o.result.Dropped), float64(o.result.Retried), float64(o.result.Lost)})
		}
	}
	for _, k := range serveKinds {
		if len(lat[k]) > 0 {
			r.set("serve.cold_ms."+k, median(lat[k]))
		}
	}
	for _, k := range mpKinds {
		if len(build[k]) > 0 {
			r.set("route.multipath_build_ms."+k, median(build[k]))
		}
	}
	for _, k := range faultKinds {
		if n := float64(len(faults[k])); n > 0 {
			var sum [3]float64
			for _, f := range faults[k] {
				sum[0], sum[1], sum[2] = sum[0]+f[0], sum[1]+f[1], sum[2]+f[2]
			}
			r.set("sim.dropped."+k, sum[0]/n)
			r.set("sim.retried."+k, sum[1]/n)
			r.set("sim.lost."+k, sum[2]/n)
		}
	}
	if len(parse) > 0 {
		r.set("sim.plan_parse_us", median(parse))
	}
	if len(overhead) > 0 {
		r.set("serve.overhead_ms", median(overhead))
	}
}

func routingMode(name string) sim.RoutingMode {
	switch name {
	case "ugal":
		return sim.UGALMode
	case "ugal-g":
		return sim.UGALGMode
	case "mp-min":
		return sim.MPMINMode
	case "mp-ugal":
		return sim.MPUGALMode
	}
	return sim.MIN
}

// toEvalResult is the service's wire form of a sim.Result.
func toEvalResult(r sim.Result) serve.EvalResult {
	return serve.EvalResult{
		Load: r.Load, AvgLatency: r.AvgLatency, MaxLatency: r.MaxLatency,
		DeliveredFrac: r.DeliveredFrac, Throughput: r.Throughput,
		Backlog: r.Backlog, BacklogAtMeasEnd: r.BacklogAtMeasEnd,
		Saturated: r.Saturated, Lost: r.Lost, Dropped: r.Dropped,
		Retried: r.Retried, TerminatedEarly: r.TerminatedEarly,
	}
}
