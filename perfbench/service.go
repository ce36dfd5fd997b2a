package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xedsim/internal/dist"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

var serviceWorkload = &workload{
	name:     "service",
	unit:     "trials",
	crossOps: 20,
	setup:    newServiceInst,
}

// Service noise controls: poll and back off at most a millisecond, so an
// op never waits out a 250 ms default poll or a 5 s idle backoff.
const (
	servicePoll       = time.Millisecond
	serviceBackoffMin = 100 * time.Microsecond
	serviceBackoffMax = time.Millisecond
)

// spanHeader carries a worker request's span ID to the coordinator's
// handler wrapper, which records the server side as its child.
const spanHeader = "X-Perfbench-Span"

// serviceInst serves a dist.Coordinator on 127.0.0.1 and drains it with
// one dist.Worker (one lease loop); each op is one Client.RunCampaign.
type serviceInst struct {
	e       *env
	cfg     faultsim.Config
	schemes []faultsim.Scheme
	names   []string

	transport  *http.Transport
	srv        *http.Server
	serveDone  chan error
	stopWorker context.CancelFunc
	workerDone chan error
	client     *dist.Client

	// Tracing: requests a worker sends while a traced op runs become spans
	// under that op's client span; requests between ops are not recorded.
	tr        *tracer
	reg       *obs.Registry
	curSpan   atomic.Int64 // the running traced op's client span, 0 between ops
	curOp     atomic.Int64
	unitsBase uint64 // worker units settled before the first traced op
	based     bool
}

func newServiceInst(_ context.Context, e *env, tr *tracer, reg *obs.Registry) (instance, error) {
	s := &serviceInst{e: e, cfg: faultsim.DefaultConfig(), schemes: faultsim.AllSchemes(),
		names: faultsim.SchemeNames(), tr: tr, reg: reg,
		serveDone: make(chan error, 1), workerDone: make(chan error, 1)}
	coord, err := dist.NewCoordinator(dist.CoordinatorOptions{UnitChunks: 1, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := coord.Handler()
	s.transport = http.DefaultTransport.(*http.Transport).Clone()
	var workerRT http.RoundTripper = s.transport
	if tr != nil {
		handler = s.traceHandler(handler)
		workerRT = &tracingTransport{s: s, base: s.transport}
	}
	s.srv = &http.Server{Handler: handler}
	go func() { s.serveDone <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	wctx, cancel := context.WithCancel(context.Background())
	s.stopWorker = cancel
	w := dist.NewWorker(dist.WorkerOptions{
		ID: "perfbench", Coordinator: base, Parallel: 1, Metrics: reg,
		Client:     &http.Client{Transport: workerRT},
		BackoffMin: serviceBackoffMin, BackoffMax: serviceBackoffMax,
	})
	go func() { s.workerDone <- w.Run(wctx) }()

	s.client = dist.NewClient(base, &http.Client{Transport: s.transport})
	s.client.PollInterval = servicePoll
	s.client.BackoffMin, s.client.BackoffMax = serviceBackoffMin, serviceBackoffMax
	return s, nil
}

func (s *serviceInst) spec(i int) *dist.JobSpec {
	return &dist.JobSpec{Config: s.cfg, Schemes: s.names, Trials: s.e.size.ServiceTrials, Seed: s.e.seed + uint64(i)}
}

func (s *serviceInst) op(ctx context.Context, i int, tr *tracer, root int64) (any, error) {
	if tr != nil && !s.based {
		s.unitsBase, s.based = s.reg.Counter("dist.worker_units_done").Load(), true
	}
	sp := tr.begin("dist.Client.RunCampaign", root, i)
	if sp != 0 {
		s.curOp.Store(int64(i))
		s.curSpan.Store(sp)
	}
	rep, err := s.client.RunCampaign(ctx, s.spec(i))
	s.curSpan.Store(0)
	tr.end(sp)
	return rep, err
}

// check bands every op like a local campaign; op 0's Report must also
// equal a local RunCampaign of the same spec.
func (s *serviceInst) check(ctx context.Context, i int, out any) error {
	rep := out.(*faultsim.Report)
	if err := checkCampaign(s.e.ref, rep, s.e.size.ServiceTrials); err != nil {
		return err
	}
	if i != 0 {
		return nil
	}
	opts := s.spec(i).CampaignOptions()
	opts.Workers = 1
	local, err := faultsim.RunCampaign(ctx, s.cfg, s.schemes, opts)
	if err != nil {
		return err
	}
	return checkSameReport(rep, local)
}

func (s *serviceInst) work(int) float64 { return float64(s.e.size.ServiceTrials) }

func (s *serviceInst) probe(context.Context, int, any, *tracer, int64) error { return nil }

func (s *serviceInst) layers(spans []span, reg *obs.Registry) []metric {
	snap := reg.Snapshot()
	var lease, complete, rtt []float64
	type opTimes struct {
		client            *span
		rttNS             int64
		lastCompleteEndNS int64
	}
	ops := make(map[int]*opTimes)
	at := func(op int) *opTimes {
		if ops[op] == nil {
			ops[op] = &opTimes{}
		}
		return ops[op]
	}
	for i := range spans {
		sp := &spans[i]
		us := 1e3 * ms(sp.dur())
		switch {
		case sp.Name == "dist.Client.RunCampaign":
			at(sp.Op).client = sp
		case sp.Name == "dist.handler /v1/lease":
			lease = append(lease, us)
		case sp.Name == "dist.handler /v1/complete":
			complete = append(complete, us)
			at(sp.Op).lastCompleteEndNS = max(at(sp.Op).lastCompleteEndNS, sp.End)
		case strings.HasPrefix(sp.Name, "dist.rtt "):
			rtt = append(rtt, us)
		}
	}
	// Round trips are sequential (one lease loop) and clipped to their
	// client span, so their sum is the time the worker spent waiting on the
	// network and the coordinator.
	for i := range spans {
		if sp := &spans[i]; strings.HasPrefix(sp.Name, "dist.rtt ") {
			at(sp.Op).rttNS += sp.End - sp.Start
		}
	}
	var computeFrac, slack []float64
	for _, o := range ops {
		if o.client == nil {
			continue
		}
		computeFrac = append(computeFrac, 1-float64(o.rttNS)/float64(o.client.End-o.client.Start))
		if o.lastCompleteEndNS > 0 {
			slack = append(slack, float64(o.client.End-o.lastCompleteEndNS)/1e6)
		}
	}
	merge := snap.Histograms["dist.merge_ms"]
	units := float64(snap.Counters["dist.worker_units_done"] - s.unitsBase)
	return []metric{
		{"dist.lease_server_us", median(lease), "us"},
		{"dist.complete_server_us", median(complete), "us"},
		{"dist.rtt_us", median(rtt), "us"},
		{"dist.merge_ms", merge.Mean(), "ms"},
		{"dist.requests_per_unit", float64(len(rtt)) / units, "ratio"},
		{"dist.worker_compute_frac", median(computeFrac), "ratio"},
		{"dist.client_slack_ms", median(slack), "ms"},
	}
}

// close stops the worker, then the server, and waits for both.
func (s *serviceInst) close() error {
	s.stopWorker()
	werr := <-s.workerDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := s.srv.Shutdown(ctx)
	if err := <-s.serveDone; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	s.transport.CloseIdleConnections()
	return errors.Join(werr, serr)
}

// traceHandler records the coordinator's handling of each worker request
// that carries a span header, as a child of the worker's round trip.
func (s *serviceInst) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := s.tr.begin("dist.handler "+r.URL.Path, parent, int(s.curOp.Load()))
		h.ServeHTTP(w, r)
		s.tr.end(id)
	})
}

// tracingTransport records each worker round trip made during a traced op,
// from sending the request to closing the response body.
type tracingTransport struct {
	s    *serviceInst
	base http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := t.s.curSpan.Load()
	if parent == 0 {
		return t.base.RoundTrip(req)
	}
	tr := t.s.tr
	id := tr.begin("dist.rtt "+req.URL.Path, parent, int(t.s.curOp.Load()))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.end(id) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
