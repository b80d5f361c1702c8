package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"treesched/internal/scenario"
	"treesched/internal/server"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

const (
	// serveRate is the open phase's fixed job rate, in jobs per host
	// second (BENCHMARK.json states it). The in-process daemon
	// saturates at several times this rate, so nothing is shed.
	serveRate = 50_000
	// serveOpenShare is the share of --seconds the open phase lasts.
	serveOpenShare = 0.7
	// burstJobsPerSecond sizes one burst per --seconds; burstReps
	// bursts of the same jobs run, each on a fresh daemon, and
	// jobs_per_s is their median.
	burstJobsPerSecond = 5_000
	burstReps          = 15
	// burstBatch is how many jobs one burst POST carries.
	burstBatch = 1000
	// openQueue is the open phase's admission queue depth: a second of
	// arrivals, so a short host stall is absorbed instead of shed.
	openQueue = 1 << 16
	// subscriberBuffer is the completion stream's depth in chunks. A
	// burst completes jobs faster than one reader sharing the CPUs
	// always keeps up with; a deeper buffer keeps the daemon from
	// dropping the benchmark's reader mid-burst.
	subscriberBuffer = 1 << 14
	// windowSeconds splits the open phase by due time; each latency
	// metric is the median of its per-window percentiles, so one host
	// hiccup moves one window, not the result.
	windowSeconds = 1.0
	// serveWarmJobs is the warm-up daemon's job count in each setup round.
	serveWarmJobs = 5000
	// statsEvery is the /stats polling period of traced open phases.
	statsEvery = 50 * time.Millisecond
)

// serveSpec is treeschedd's default scenario, with the minimum
// retention window the daemon uses anyway.
const serveSpec = "topo=fattree:2,2,2 speed=1.5 retain=1 serve"

// genSpec generates a phase's jobs: the same Poisson process and size
// law as the offline workloads, on the daemon's topology.
func genSpec(n int, seed uint64) string {
	return fmt.Sprintf("topo=fattree:2,2,2 speed=1.5 n=%d load=0.95 size=uniform:1,16 class=0.5 stream seed=%d", n, seed)
}

// serveInput is one phase's generated jobs. They are identical-machine
// jobs, so a release and a size describe each; the burst input also
// keeps them pre-encoded as the NDJSON a client posts.
type serveInput struct {
	release, size []float64
	// body holds job i's line at body[off[i]:off[i+1]] (nil when the
	// lines are encoded as they are posted).
	body []byte
	off  []int
}

func genInput(n int, seed uint64, encode bool) (*serveInput, error) {
	in, err := buildScenario(genSpec(n, seed))
	if err != nil {
		return nil, err
	}
	src, err := in.NewSource()
	if err != nil {
		return nil, err
	}
	si := &serveInput{release: make([]float64, 0, n), size: make([]float64, 0, n)}
	if encode {
		si.off = []int{0}
	}
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if j.ID != len(si.release) || j.LeafSizes != nil || j.Weight != 0 || j.Origin != 0 {
			return nil, fmt.Errorf("generator yielded job %+v, want plain job %d", j, len(si.release))
		}
		si.release = append(si.release, j.Release)
		si.size = append(si.size, j.Size)
		if encode {
			if si.body, err = workload.AppendJob(si.body, &j); err != nil {
				return nil, err
			}
			si.body = append(si.body, '\n')
			si.off = append(si.off, len(si.body))
		}
	}
	return si, src.Err()
}

func (si *serveInput) job(i int) workload.Job {
	return workload.Job{ID: i, Release: si.release[i], Size: si.size[i]}
}

// lines returns the NDJSON of jobs [i, j), encoding into buf unless the
// input is pre-encoded.
func (si *serveInput) lines(i, j int, buf []byte) ([]byte, error) {
	if si.body != nil {
		return si.body[si.off[i]:si.off[j]], nil
	}
	buf = buf[:0]
	for k := i; k < j; k++ {
		jb := si.job(k)
		var err error
		if buf, err = workload.AppendJob(buf, &jb); err != nil {
			return nil, err
		}
		buf = append(buf, '\n')
	}
	return buf, nil
}

// daemon is an in-process treeschedd: the server behind a loopback
// HTTP/1.1 listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon(inst *scenario.Instance, queue int) (*daemon, error) {
	srv, err := server.New(server.Config{
		Scenario:         inst.Scenario,
		Instance:         inst,
		QueueDepth:       queue,
		SubscriberBuffer: subscriberBuffer,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close drains the daemon (a no-op after /drain), stops serving and
// waits for the listener goroutine to end.
func (d *daemon) close() error {
	derr := d.srv.Drain()
	d.hs.Close()
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return derr
}

// stats reads /stats through the daemon's handler in-process, so
// polling needs no third connection.
func (d *daemon) stats() (server.StatsView, error) {
	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var v server.StatsView
	err := json.Unmarshal(rec.Body.Bytes(), &v)
	return v, err
}

// newConn returns a client that holds one keep-alive HTTP/1.1
// connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func closeConn(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one request and decodes its JSON reply into v, reading
// the body to the end so the connection is reused.
func post(c *http.Client, url string, body []byte, v any) (int, error) {
	resp, err := c.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(v)
	if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// completions is the /completions subscriber: it keeps each line's
// read time and completion time by daemon job ID, and digests the
// stream's bytes for the byte-identity check.
type completions struct {
	readAt []int64 // 0 = never read
	compl  []float64
	dg     digest
	reads  int64
	dups   int64
	bad    int64
	last   int64
	err    error
	done   chan struct{}
}

// subscribe opens a completion stream for a phase of n jobs; the
// reader goroutine ends when the daemon drains.
func subscribe(c *http.Client, url string, n int) (*completions, error) {
	resp, err := c.Get(url + "/completions")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /completions: status %d", resp.StatusCode)
	}
	cr := &completions{readAt: make([]int64, n), compl: make([]float64, n), done: make(chan struct{})}
	go func() {
		defer close(cr.done)
		defer resp.Body.Close()
		cr.read(resp.Body)
	}()
	return cr, nil
}

func (cr *completions) read(body io.Reader) {
	buf := make([]byte, 256<<10)
	start, end := 0, 0
	for {
		if end == len(buf) {
			end = copy(buf, buf[start:end])
			start = 0
			if end == len(buf) {
				buf = append(buf, make([]byte, len(buf))...)
			}
		}
		k, err := body.Read(buf[end:])
		ts := now()
		if k > 0 {
			cr.reads++
			cr.dg.Write(buf[end : end+k])
			end += k
			for {
				i := bytes.IndexByte(buf[start:end], '\n')
				if i < 0 {
					break
				}
				cr.line(buf[start:start+i], ts)
				start += i + 1
			}
		}
		if err != nil {
			if err != io.EOF {
				cr.err = err
			}
			if start != end {
				cr.bad++
			}
			return
		}
	}
}

func (cr *completions) line(b []byte, ts int64) {
	id, c, ok := parseCompletion(b)
	switch {
	case !ok || id < 0 || id >= len(cr.readAt):
		cr.bad++
	case cr.readAt[id] != 0:
		cr.dups++
	default:
		cr.readAt[id], cr.compl[id], cr.last = ts, c, ts
	}
}

// parseCompletion reads the ID and Completion fields of one completion
// line, which the daemon writes in a fixed field order.
func parseCompletion(b []byte) (int, float64, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"ID":`))
	i := bytes.IndexByte(rest, ',')
	if !ok || i < 0 {
		return 0, 0, false
	}
	id, err := strconv.Atoi(string(rest[:i]))
	if err != nil {
		return 0, 0, false
	}
	_, rest, ok = bytes.Cut(rest[i:], []byte(`,"Completion":`))
	i = bytes.IndexByte(rest, ',')
	if !ok || i < 0 {
		return 0, 0, false
	}
	c, err := strconv.ParseFloat(string(rest[:i]), 64)
	return id, c, err == nil
}

// phase is what one daemon lifetime produced.
type phase struct {
	si       *serveInput
	accepted []int // generated index of each accepted job, by daemon ID
	cr       *completions
	start    int64
	drainAt  int64 // when /drain was sent
	drainEnd int64 // when /drain answered
	shed     int
}

// admit records one POST's outcome for the jobs [i, j) it carried.
func (r *bench) admit(p *phase, i, j, status int, ar server.AdmitResult) {
	n := 0
	if (status == http.StatusOK || status == http.StatusTooManyRequests) && ar.FirstID == len(p.accepted) {
		n = min(ar.Accepted, j-i)
	}
	for k := 0; k < n; k++ {
		p.accepted = append(p.accepted, i+k)
	}
	r.ops(int64(j-i), int64(j-i-n))
}

// finish drains the daemon, waits for the completion stream to end and
// checks that every accepted job completed exactly once.
func (r *bench) finish(d *daemon, c *http.Client, p *phase) error {
	p.drainAt = now()
	var st server.StatsView
	status, err := post(c, d.url+"/drain", nil, &st)
	p.drainEnd = now()
	if err != nil {
		return fmt.Errorf("POST /drain: %w", err)
	}
	r.check(status == http.StatusOK, "POST /drain: status %d", status)
	<-p.cr.done
	p.shed = st.Shed
	cr := p.cr
	missing := 0
	for k := range p.accepted {
		if cr.readAt[k] == 0 {
			missing++
		}
	}
	r.check(cr.err == nil && cr.bad == 0 && cr.dups == 0 && missing == 0 && cr.dg.lines == int64(len(p.accepted)),
		"completions: %d lines for %d accepted jobs, %d missing, %d duplicate, %d malformed (%v)",
		cr.dg.lines, len(p.accepted), missing, cr.dups, cr.bad, cr.err)
	r.ops(0, int64(missing)+cr.dups)
	return d.close()
}

// acceptedTrace is the trace the daemon ran: the accepted jobs with
// their daemon IDs.
func (p *phase) acceptedTrace() *workload.Trace {
	tr := &workload.Trace{Jobs: make([]workload.Job, len(p.accepted))}
	for k, i := range p.accepted {
		tr.Jobs[k] = p.si.job(i)
		tr.Jobs[k].ID = k
	}
	return tr
}

// replay runs the accepted trace offline through RunStream with an
// NDJSON sink, the daemon's determinism reference; with spans set the
// source, assigner and sink are traced.
func replay(tr *workload.Trace, sp *replaySpans) (res *sim.Result, dg digest, c cost, err error) {
	inst, err := buildScenario(serveSpec)
	if err != nil {
		return nil, dg, c, err
	}
	asg, err := inst.NewAssigner()
	if err != nil {
		return nil, dg, c, err
	}
	var src workload.ArrivalSource = workload.NewTraceSource(tr)
	var sink sim.JobSink = sim.NewNDJSONSink(&dg)
	if sp != nil {
		src = &tracedSource{inner: src, spans: sp.source}
		sink = &tracedSink{inner: sink, spans: sp.encode}
		asg = traceAssigner(asg, sp.assign)
	}
	opts := inst.Opts
	opts.Sink = sink
	s := sim.New(inst.Tree, opts)
	c = measure(func() { res, err = sim.RunStreamOn(s, src, asg) })
	return res, dg, c, err
}

type replaySpans struct{ run, source, assign, encode *layerSpans }

// checkReplay checks a phase's completion bytes against the offline
// replay of its accepted trace, returning the replay's wall time.
func (r *bench) checkReplay(name string, p *phase) (int64, error) {
	_, dg, c, err := replay(p.acceptedTrace(), nil)
	if err != nil {
		return 0, fmt.Errorf("%s replay: %w", name, err)
	}
	r.check(dg == p.cr.dg, "%s: daemon completions (%v) differ from the offline RunStream (%v)", name, &p.cr.dg, &dg)
	return c.wallNS, nil
}

// openStats is what the open phase measured, latencies by window.
type openStats struct {
	ack, lag    [][]float64
	posts, late []float64
	backlogMax  float64
}

// openPhase runs the open loop on a fresh daemon: each job is due at
// its scaled release time, and whatever is due goes out in one POST on
// the one keep-alive connection, whether or not the daemon kept up.
func (r *bench) openPhase(si *serveInput, inst *scenario.Instance) (*phase, *openStats, error) {
	d, err := startDaemon(inst, openQueue)
	if err != nil {
		return nil, nil, err
	}
	c, rc := newConn(), newConn()
	defer closeConn(c)
	defer closeConn(rc)
	n := len(si.release)
	cr, err := subscribe(rc, d.url, n)
	if err != nil {
		d.close()
		return nil, nil, err
	}
	p := &phase{si: si, cr: cr, accepted: make([]int, 0, n)}
	// Job i is due nsPerRelease*release[i] after the phase starts:
	// releases scaled so that jobs arrive at serveRate on average.
	nsPerRelease := float64(n) / serveRate * 1e9 / si.release[n-1]
	due := func(i int) int64 { return p.start + int64(si.release[i]*nsPerRelease) }
	span := int64(si.release[n-1]*nsPerRelease) + 1
	windows := max(1, int(float64(span)/1e9/windowSeconds+0.5))
	// Every sample slice is allocated up front: growing a large slice
	// mid-phase copies it and shows up as a latency spike.
	st := &openStats{
		ack:   make([][]float64, windows),
		lag:   make([][]float64, windows),
		posts: make([]float64, 0, n),
		late:  make([]float64, 0, n),
	}
	for w := range st.ack {
		st.ack[w] = make([]float64, 0, 2*n/windows+16)
		st.lag[w] = make([]float64, 0, 2*n/windows+16)
	}
	window := func(i int) int { return int((due(i) - p.start) * int64(windows) / span) }
	var buf []byte

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if r.trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if v, err := d.stats(); err == nil && v.Backlog > st.backlogMax {
						st.backlogMax = v.Backlog
					}
				}
			}
		}()
	}

	p.start = now()
	prevAck := p.start
	for next := 0; next < n; {
		first := due(next)
		if w := first - now(); w > 0 {
			time.Sleep(time.Duration(w))
		}
		sendAt := now()
		st.late = append(st.late, msOf(sendAt-max(first, prevAck)))
		end := next + 1
		for end < n && due(end) <= sendAt {
			end++
		}
		var ar server.AdmitResult
		status := 0
		if buf, err = si.lines(next, end, buf); err == nil {
			status, err = post(c, d.url+"/jobs", buf, &ar)
		}
		ackAt := now()
		if err != nil {
			close(stop)
			wg.Wait()
			d.close()
			return nil, nil, fmt.Errorf("POST /jobs: %w", err)
		}
		st.posts = append(st.posts, msOf(ackAt-sendAt))
		before := len(p.accepted)
		r.admit(p, next, end, status, ar)
		for _, i := range p.accepted[before:] {
			w := window(i)
			st.ack[w] = append(st.ack[w], msOf(ackAt-due(i)))
		}
		prevAck, next = ackAt, end
	}
	close(stop)
	wg.Wait()
	if err := r.finish(d, c, p); err != nil {
		return nil, nil, err
	}

	// Lag: a completion can be emitted once the daemon's virtual clock
	// passes it, which happens when the first job released at or after
	// it arrives; the rest is the daemon's own delay.
	rel := make([]float64, len(p.accepted))
	for k, i := range p.accepted {
		rel[k] = si.release[i]
	}
	for k, i := range p.accepted {
		if cr.readAt[k] == 0 {
			continue
		}
		from := p.drainAt
		if next := sort.SearchFloat64s(rel, cr.compl[k]); next < len(rel) {
			from = due(p.accepted[next])
		}
		w := window(i)
		st.lag[w] = append(st.lag[w], msOf(cr.readAt[k]-from))
	}
	return p, st, nil
}

// burstPhase posts the whole input in back-to-back batches, each sent
// when the previous one is acknowledged, then drains. The admission
// queue holds the whole burst, so the daemon never sheds it.
func (r *bench) burstPhase(si *serveInput, inst *scenario.Instance) (*phase, error) {
	n := len(si.release)
	d, err := startDaemon(inst, n)
	if err != nil {
		return nil, err
	}
	c, rc := newConn(), newConn()
	defer closeConn(c)
	defer closeConn(rc)
	cr, err := subscribe(rc, d.url, n)
	if err != nil {
		d.close()
		return nil, err
	}
	p := &phase{si: si, cr: cr, accepted: make([]int, 0, n), start: now()}
	for i := 0; i < n; i += burstBatch {
		j := min(i+burstBatch, n)
		var ar server.AdmitResult
		body, err := si.lines(i, j, nil)
		if err != nil {
			d.close()
			return nil, err
		}
		status, err := post(c, d.url+"/jobs", body, &ar)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("POST /jobs: %w", err)
		}
		r.admit(p, i, j, status, ar)
	}
	if err := r.finish(d, c, p); err != nil {
		return nil, err
	}
	return p, nil
}

// serve runs treeschedd in-process: an open-loop phase at serveRate
// for latency, then saturating bursts for throughput, each on a fresh
// daemon, all checked against offline RunStream replays.
func serve(r *bench) error {
	nOpen := r.jobs(int(serveRate * serveOpenShare * r.seconds))
	nBurst := r.jobs(int(burstJobsPerSecond * r.seconds))
	var (
		open, burst *serveInput
		builds      []float64
	)
	err := r.timeSetup(func() error {
		t0 := time.Now()
		inst, err := buildScenario(serveSpec)
		if err != nil {
			return err
		}
		builds = append(builds, msSince(t0))
		if open, err = genInput(nOpen, r.seed, false); err != nil {
			return err
		}
		if burst, err = genInput(nBurst, r.seed+1<<32, true); err != nil {
			return err
		}
		// Warm-up: a throwaway daemon takes the burst's first jobs.
		w := min(serveWarmJobs, nBurst)
		warm := &serveInput{release: burst.release[:w], size: burst.size[:w], body: burst.body, off: burst.off}
		_, err = r.burstPhase(warm, inst)
		return err
	})
	if err != nil {
		return err
	}
	r.set("scenario.build_ms", median(builds))
	r.info["scenario"] = serveSpec
	r.info["open_rate_jobs_per_s"] = serveRate
	r.info["open_jobs"] = nOpen
	r.info["burst_jobs"] = nBurst
	r.info["bursts"] = burstReps

	// fresh builds a daemon's instance, its assigner traced when spans
	// is set.
	fresh := func(spans *layerSpans) (*scenario.Instance, error) {
		inst, err := buildScenario(serveSpec)
		if err == nil && spans != nil {
			inst.Assigner = traceAssigner(inst.Assigner, spans)
		}
		return inst, err
	}
	t := r.tracer
	if t == nil {
		t = &tracer{}
	}
	var openAssign *layerSpans
	if r.trace {
		openAssign = t.layer("core.assign", "daemon.open")
	}
	inst, err := fresh(openAssign)
	if err != nil {
		return err
	}
	// Collect the set-up rounds' garbage now, so the collection it
	// would trigger does not land inside a timed phase.
	runtime.GC()
	op, ol, err := r.openPhase(open, inst)
	if err != nil {
		return err
	}
	r.latencies("ack", ol.ack)
	r.latencies("lag", ol.lag)
	t.layer("daemon.open", "").add(op.start, op.drainEnd)
	shed := op.shed

	var (
		rates   []float64
		first   *phase
		burstNS []float64
		jobs    int
	)
	runtime.GC() // likewise for the open phase's garbage
	a := readRuntime()
	cpu0 := cpuSeconds()
	for rep := 0; rep < burstReps; rep++ {
		if inst, err = fresh(nil); err != nil {
			return err
		}
		bp, err := r.burstPhase(burst, inst)
		if err != nil {
			return err
		}
		d := float64(bp.cr.last - bp.start)
		rates = append(rates, float64(len(bp.accepted))/(d/1e9))
		burstNS = append(burstNS, d/float64(len(bp.accepted)))
		jobs += len(bp.accepted)
		shed += bp.shed
		if first == nil {
			first = bp
		} else {
			r.check(bp.cr.dg == first.cr.dg, "burst %d completions (%v) differ from burst 0's (%v)", rep, &bp.cr.dg, &first.cr.dg)
		}
	}
	r.set("cpu_us_per_job", (cpuSeconds()-cpu0)*1e6/float64(jobs))
	b := readRuntime()
	r.setRate(rates)
	if err := r.recordPeakRSS(); err != nil {
		return err
	}
	if _, err := r.checkReplay("open phase", op); err != nil {
		return err
	}
	replayNS, err := r.checkReplay("burst phase", first)
	if err != nil {
		return err
	}
	if !r.trace {
		return nil
	}

	// Traced run: the per-layer view of both phases.
	sort.Float64s(ol.posts)
	sort.Float64s(ol.late)
	r.set("server.post_ms_p50", percentile(ol.posts, 0.50))
	r.set("server.post_ms_p99", percentile(ol.posts, 0.99))
	r.set("server.jobs_per_post", float64(nOpen)/float64(len(ol.posts)))
	r.set("server.lines_per_read", float64(op.cr.dg.lines)/float64(op.cr.reads))
	r.set("server.drain_ms", msOf(op.drainEnd-op.drainAt))
	r.set("server.backlog_max", ol.backlogMax)
	r.set("gen.late_ms_p99", percentile(ol.late, 0.99))
	r.runtimeMetrics(a, b, jobs)

	// One more burst with the daemon's assigner traced.
	burstAssign := t.layer("core.assign", "daemon.burst")
	if inst, err = fresh(burstAssign); err != nil {
		return err
	}
	tp, err := r.burstPhase(burst, inst)
	if err != nil {
		return err
	}
	shed += tp.shed
	tracedNS := tp.cr.last - tp.start
	t.layer("daemon.burst", "").add(tp.start, tp.cr.last)
	perJob := median(burstNS)
	nb := float64(len(tp.accepted))
	r.set("server.shed_jobs", float64(shed))
	r.set("trace.overhead", float64(tracedNS)/nb/perJob-1)
	r.set("core.assign_ns_per_job", float64(burstAssign.total)/nb)
	r.set("core.assign_share", float64(burstAssign.total)/float64(tracedNS))

	// In-process stage costs of a burst: decoding the posted bytes, and
	// RunStream (dispatch, event loop, encode) of the accepted trace.
	// The tax is what the daemon's wall time per job adds to RunStream.
	// Decode is not subtracted: it runs on the handler goroutine,
	// overlapped with the engine on the other CPU.
	decode := t.layer("workload.decode", "")
	t0 := now()
	src := workload.NewNDJSONSourceLimited(bytes.NewReader(burst.body), workload.SourceLimits{MaxLineBytes: 1 << 20})
	decoded := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		decoded++
	}
	decode.add(t0, now())
	r.check(src.Err() == nil && decoded == nBurst, "decode replay: %d of %d jobs (%v)", decoded, nBurst, src.Err())
	decodeNS := float64(decode.total) / float64(nBurst)
	tax := perJob - float64(replayNS)/nb
	r.set("workload.decode_ns_per_job", decodeNS)
	r.set("server.tax_ns_per_job", tax)

	sp := &replaySpans{
		run:    t.layer("sim.run", ""),
		source: t.layer("replay.source", "sim.run"),
		assign: t.layer("core.assign", "sim.run"),
		encode: t.layer("sim.encode", "sim.run"),
	}
	res, dg, c, err := replay(first.acceptedTrace(), sp)
	if err != nil {
		return err
	}
	d := c.wallNS
	sp.run.add(c.start, c.start+d)
	r.check(dg == first.cr.dg, "traced replay output (%v) differs from the daemon's (%v)", &dg, &first.cr.dg)
	events := float64(res.Stats.Events)
	r.set("sim.loop_ns_per_event", float64(self(sp.run, sp.source, sp.assign, sp.encode))/events)
	r.set("sim.events_per_job", events/nb)
	r.set("sim.encode_ns_per_job", float64(sp.encode.total)/nb)
	r.set("sim.encode_bytes_per_job", float64(dg.bytes)/nb)
	// The traced stage costs plus the tax, against a burst's wall time
	// per job: 1 when the traced stages account for all of it.
	r.set("server.accounted_frac", (float64(d)/nb+tax)/perJob)
	r.notMeasured("sched.assign_ns_per_job", "sim.parallel_speedup", "workload.gen_ns_per_job")
	return nil
}
