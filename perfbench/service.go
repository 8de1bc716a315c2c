package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zenspec"
	"zenspec/internal/harness/suite"
	"zenspec/internal/service"
	"zenspec/internal/svcobs"
)

// serviceIDs is the quick experiment subset every service job runs.
var serviceIDs = []string{"fig2", "table2", "fig4", "table3", "addrleak",
	"transient-exec", "transient-update", "table4", "fault-harness"}

const (
	// jobSplit cuts each rangeable experiment into this many trial-range
	// shards, so the range and merge path runs.
	jobSplit = 4
	// pollEvery is the Client.Wait interval. The watch stream ticks every
	// 100 ms and would quantize latency.
	pollEvery = 5 * time.Millisecond
	// heartbeatProbe is how many heartbeats a traced run sends and times on
	// one held lease. Workers keep their default keepalive of a third of the
	// lease TTL, which a quick shard never reaches.
	heartbeatProbe = 50
	// keepJobs is how many finished jobs the daemon retains before archiving
	// the oldest. A run finishes more than this many, so memory has reached
	// its plateau whatever the host's speed.
	keepJobs = 64
	// jobTimeout bounds one job, so a stuck daemon fails the run instead of
	// hanging it.
	jobTimeout = 60 * time.Second
)

func serviceParams(nproc int) map[string]any {
	return map[string]any{"experiments": serviceIDs, "quick": true, "split": jobSplit,
		"clients": nproc, "workers": nproc, "worker_parallelism": 1,
		"poll_ms": ms(pollEvery), "worker_poll": "default", "worker_heartbeat": "default",
		"daemon_workers": 0, "keep_jobs": keepJobs}
}

// jobSpec is job index's spec. Its seed is derived from the workload seed,
// distinct for every index, so no two jobs share work.
func jobSpec(seed int64, index int) service.JobSpec {
	return service.JobSpec{Seed: jobSeed(seed, index), Quick: true, Only: serviceIDs, Split: jobSplit}
}

// jobSeed mixes the workload seed (splitmix64) into a base below 2^33 and
// adds the index scaled into its own decimal digits, so distinct indices
// below a million never collide.
func jobSeed(seed int64, index int) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x%(1<<33))*1_000_000 + int64(index)
}

// svcEnv is zenspecd inside the benchmark process: a daemon with no pool of
// its own, its HTTP server on loopback, load clients and pull workers, all
// talking over the /v1 API.
type svcEnv struct {
	dir     string
	hub     *svcobs.Hub
	d       *service.Daemon
	srv     *service.Server
	base    string
	tracer  atomic.Pointer[Tracer] // nil while untraced
	clients []*service.Client
	sources []*timedSource
	stop    context.CancelFunc
	workers sync.WaitGroup
}

// openService is the service set-up: open a daemon on a fresh state
// directory (journal created and fsynced), serve it on 127.0.0.1:0, and
// connect nproc load clients and nproc worker clients through the /v1
// version handshake.
func openService(root string, nproc int) (*svcEnv, error) {
	dir, err := os.MkdirTemp(root, "zenspecd-")
	if err != nil {
		return nil, err
	}
	e := &svcEnv{dir: dir, hub: svcobs.New(nil)}
	e.d, err = service.Open(service.Config{Dir: dir, Registry: suite.Registry(), Obs: e.hub, KeepJobs: keepJobs})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.srv = service.NewServer(e.d)
	addr, err := e.srv.Serve("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + addr.String()
	for i := 0; i < nproc; i++ {
		lane := fmt.Sprintf("client-%d", i+1)
		e.clients = append(e.clients, &service.Client{Base: e.base,
			HTTP: &http.Client{Transport: &timedTransport{base: newTransport(), env: e, lane: lane}}})
		wlane := fmt.Sprintf("worker-%d", i+1)
		e.sources = append(e.sources, &timedSource{env: e, lane: wlane, leased: map[string]leaseRec{},
			inner: &service.Client{Base: e.base, HTTP: &http.Client{Transport: newTransport()}}})
	}
	for _, c := range e.clients {
		if _, err := c.Meta(); err != nil {
			e.close()
			return nil, err
		}
	}
	for _, s := range e.sources {
		if _, err := s.inner.Meta(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// startWorkers runs one service.Worker per worker client until close. The
// workers keep the defaults cmd/zenspec-worker runs with: a 2 s lease poll
// and a heartbeat every third of the lease TTL.
func (e *svcEnv) startWorkers() {
	ctx, cancel := context.WithCancel(context.Background())
	e.stop = cancel
	for _, s := range e.sources {
		w := service.NewWorker(s, service.WorkerConfig{
			Name: s.lane, Registry: suite.Registry(), Parallelism: 1,
		})
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			w.Run(ctx) // returns ctx's error once stopped
		}()
	}
}

// close stops the workers, shuts the server and daemon down (which
// checkpoints the journal), waits for every goroutine it started and
// removes the state directory.
func (e *svcEnv) close() error {
	if e.stop != nil {
		e.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := e.srv.Shutdown(ctx)
	cancel()
	e.workers.Wait()
	for _, c := range e.clients {
		c.HTTP.Transport.(*timedTransport).base.CloseIdleConnections()
	}
	for _, s := range e.sources {
		s.inner.HTTP.Transport.(*http.Transport).CloseIdleConnections()
	}
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// timedTransport records a "status" span for every job status request a
// client's Wait makes, from sending the request to closing the response.
type timedTransport struct {
	base *http.Transport
	env  *svcEnv
	lane string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.env.tracer.Load()
	id, ok := strings.CutPrefix(req.URL.Path, "/v1/jobs/")
	if tr == nil || req.Method != http.MethodGet || !ok || strings.Contains(id, "/") {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.RecordUnderRoot(id, "status", t.lane, start, time.Now())
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		tr.RecordUnderRoot(id, "status", t.lane, start, time.Now())
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedSource is the timing LeaseSource wrapper around a worker's client.
// It records the lease, heartbeat and complete calls, and the shard's
// execution between its lease and its completion.
type timedSource struct {
	env   *svcEnv
	lane  string
	inner *service.Client
	// beats is how many heartbeats to send and time on the next useful lease
	// before the worker gets it; beatErrs counts those that failed.
	beats, beatErrs atomic.Int32

	mu     sync.Mutex
	leased map[string]leaseRec // by lease token
}

type leaseRec struct {
	job string
	at  time.Time // when the lease arrived
}

func (s *timedSource) Lease(worker string, wait time.Duration) (*service.Lease, error) {
	start := time.Now()
	l, err := s.inner.Lease(worker, wait)
	end := time.Now()
	tr := s.env.tracer.Load()
	switch {
	case err != nil:
	case l == nil:
		tr.Record("", "lease-empty", s.lane, -1, start, end)
	default:
		tr.RecordUnderRoot(l.Job, "lease", s.lane, start, end)
		s.mu.Lock()
		s.leased[l.Token] = leaseRec{job: l.Job}
		s.mu.Unlock()
		for n := s.beats.Swap(0); n > 0; n-- {
			if s.Heartbeat(l.Token, 0, 0) != nil {
				s.beatErrs.Add(int32(n))
				break
			}
		}
		s.mu.Lock()
		s.leased[l.Token] = leaseRec{job: l.Job, at: time.Now()}
		s.mu.Unlock()
	}
	return l, err
}

func (s *timedSource) Heartbeat(token string, done, total int) error {
	start := time.Now()
	err := s.inner.Heartbeat(token, done, total)
	s.mu.Lock()
	rec := s.leased[token]
	s.mu.Unlock()
	s.env.tracer.Load().RecordUnderRoot(rec.job, "heartbeat", s.lane, start, time.Now())
	return err
}

func (s *timedSource) Complete(token string, c service.Completion) error {
	start := time.Now()
	s.mu.Lock()
	rec, ok := s.leased[token]
	delete(s.leased, token)
	s.mu.Unlock()
	tr := s.env.tracer.Load()
	if ok {
		tr.RecordUnderRoot(rec.job, "shard", s.lane, rec.at, start)
	}
	err := s.inner.Complete(token, c)
	tr.RecordUnderRoot(rec.job, "complete", s.lane, start, time.Now())
	return err
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	spec   service.JobSpec
	id     string
	latMS  float64 // submit to report; +Inf once the job failed
	err    string  // why it failed; empty when it did not
	stable []byte  // the StableJSON report
}

func (o *jobOutcome) fail(why string) {
	o.err = why
	o.latMS = math.Inf(1)
}

// clientLoop is one closed-loop client: submit, Wait, fetch the stable
// report, and only then submit the next job, for as long as more allows.
// Job j of client c has index first + j*clients + c.
func (e *svcEnv) clientLoop(c int, seed int64, first int, more func(j int) bool) []jobOutcome {
	cl := e.clients[c]
	lane := fmt.Sprintf("client-%d", c+1)
	var out []jobOutcome
	for j := 0; more(j); j++ {
		o := jobOutcome{spec: jobSpec(seed, first+j*len(e.clients)+c)}
		tr := e.tracer.Load()
		root := tr.Begin("", "job", lane, -1)
		start := time.Now()
		id, err := cl.Submit(o.spec)
		if err != nil {
			o.fail("refused: " + err.Error())
			tr.End(root)
			out = append(out, o)
			continue
		}
		o.id = id
		tr.SetRoot(root, id)
		tr.Record(id, "submit", lane, root, start, time.Now())
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		_, err = cl.Wait(ctx, id, pollEvery)
		cancel()
		if err != nil {
			o.fail("wait: " + err.Error())
			tr.End(root)
			out = append(out, o)
			continue
		}
		rs := time.Now()
		o.stable, err = cl.StableReport(id)
		end := time.Now()
		tr.Record(id, "report", lane, root, rs, end)
		tr.End(root)
		if err != nil {
			o.fail("report: " + err.Error())
		} else {
			o.latMS = ms(end.Sub(start))
		}
		out = append(out, o)
	}
	return out
}

// round runs every client's loop concurrently and returns all outcomes and
// the wall time until the last client stopped.
func (e *svcEnv) round(seed int64, first int, more func(j int) bool) ([]jobOutcome, time.Duration) {
	start := time.Now()
	per := make([][]jobOutcome, len(e.clients))
	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = e.clientLoop(c, seed, first, more)
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	var all []jobOutcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, window
}

// verify byte-compares every finished job's report with an in-process
// zenspec.RunExperiments of the same spec, on nproc goroutines, and fails
// the jobs that differ.
func verify(outs []jobOutcome, nproc int) error {
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	next := atomic.Int64{}
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(outs) {
					return
				}
				o := &outs[i]
				if o.err != "" {
					continue
				}
				rep, err := zenspec.RunExperiments(zenspec.Config{Seed: o.spec.Seed, Parallelism: 1}, o.spec.Quick, o.spec.Only)
				if err == nil {
					var want []byte
					want, err = rep.StableJSON()
					if err == nil && !bytes.Equal(want, o.stable) {
						o.fail("report differs from the in-process run of its spec")
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// jobStats folds outcomes into the result's operation counts and returns
// the latencies (+Inf for failures) and the number of good jobs.
func jobStats(res *result, outs []jobOutcome, info func(string, ...any)) (lat []float64, good int) {
	for _, o := range outs {
		lat = append(lat, o.latMS)
		if o.err != "" {
			info("job %s (seed %d) failed: %s", o.id, o.spec.Seed, o.err)
			continue
		}
		good++
	}
	res.add(len(outs), len(outs)-good)
	return lat, good
}

// runServiceWorkload is an untraced run of the service workload: closed-
// loop clients for the run's time, then every report checked.
func runServiceWorkload(r *run) (*result, error) {
	r.provenance(serviceParams(r.nproc))
	setupS, err := coldSetup(r)
	if err != nil {
		return nil, err
	}
	env, err := openService(r.dir, r.nproc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	env.startWorkers()
	deadline := time.Now().Add(r.seconds)
	win, cpu0 := startWatch(), cpuTime()
	outs, _ := env.round(r.seed, 0, func(int) bool { return time.Now().Before(deadline) })
	window, cpu := win.stop(), cpuTime()-cpu0
	rss := peakRSSMB()
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("service shutdown: %w", err)
	}
	res := &result{}
	countServiceFaults(res, env.hub, r.info)
	if err := verify(outs, r.nproc); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	lat, good := jobStats(res, outs, r.info)
	for i := range lat {
		lat[i] *= window.scale()
	}
	res.set("setup_s", setupS, "s")
	res.set("job_cpu_s", cpu.Seconds()/float64(max(good, 1)), "s")
	res.set("peak_rss_mb", rss, "MB")
	// wall_s is the time one client waits per job, on average.
	setJobMetrics(r, res, window.net().Seconds()*float64(r.nproc)/float64(max(good, 1)), lat, good, window)
	return res, nil
}

// countServiceFaults counts the daemon's shard leases as operations, and
// every lease revocation or shard retry as a failure: the workload's traffic
// should cause neither. It returns the scraped metrics.
func countServiceFaults(res *result, hub *svcobs.Hub, info func(string, ...any)) map[string]float64 {
	m := scrapeMetrics(hub)
	bad := int(m["lease_revocations_total"] + m["shards_retried_total"])
	res.add(int(m["leases_granted_total"]), bad)
	if bad > 0 {
		info("%d lease revocations and shard retries", bad)
	}
	return m
}

// scrapeMetrics parses the daemon's Prometheus exposition (what /metrics
// serves) and sums each series over its labels.
func scrapeMetrics(hub *svcobs.Hub) map[string]float64 {
	var buf bytes.Buffer
	hub.Metrics().WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[strings.TrimPrefix(name, svcobs.Prefix)] += v
	}
	return out
}
