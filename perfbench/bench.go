package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"syscall"
	"time"

	"xedsim/internal/obs"
)

// sizes are the op sizes of the four workloads. The benchmark's own tests
// shrink them; runs from the command line always use defaultSizes.
type sizes struct {
	CampaignTrials int   `json:"campaign_trials"`
	ServiceTrials  int   `json:"service_trials"`
	FleetDIMMs     int   `json:"fleet_dimms"`
	InstrPerCore   int64 `json:"instr_per_core"`
	// GenTrials sizes the traced run's generation/judging passes.
	GenTrials int `json:"gen_trials"`
}

var defaultSizes = sizes{
	CampaignTrials: 1 << 20,
	ServiceTrials:  1 << 18,
	FleetDIMMs:     1 << 18,
	InstrPerCore:   300_000,
	GenTrials:      1 << 18,
}

// env is what every workload instance is built from.
type env struct {
	seed uint64
	size sizes
	ref  *reference
	// dir is a scratch directory inside the checkout; only traced runs
	// write to it (checkpoint saves).
	dir string
	// log receives diagnostics: failed checks, self-time tables.
	log io.Writer
	// mutate, when set, rewrites an op's output before its check. Only the
	// benchmark's sabotage tests set it.
	mutate func(op int, out any)
}

// instance is one set-up workload. op is the only timed call; everything
// else runs outside the timed region.
type instance interface {
	// op runs op i, whose seed is env.seed + i. With a non-nil tracer it
	// records layer spans under the op's root span.
	op(ctx context.Context, i int, tr *tracer, root int64) (any, error)
	// check validates op i's output.
	check(ctx context.Context, i int, out any) error
	// work is op i's amount of work in the workload's unit.
	work(i int) float64
	// probe (traced runs only) drives extra layer passes for traced op i,
	// recording their spans under root and their values for layers.
	probe(ctx context.Context, i int, out any, tr *tracer, root int64) error
	// layers returns the workload's per-layer metrics from a traced run.
	layers(spans []span, reg *obs.Registry) []metric
	close() error
}

// workload is one named, fixed op sequence over one path through xedsim;
// BENCHMARK.json and README.md say why each was chosen.
type workload struct {
	name string
	unit string // what one unit of work is, for throughput_per_s
	// opMultiple is the length of the workload's op cycle: a timed run
	// stops only after a whole number of cycles.
	opMultiple int
	// crossOps is the op count of this workload's section in another
	// workload's traced run, split evenly between the untraced and the
	// traced phase.
	crossOps int
	// setup builds an instance; traced instances publish counters to reg
	// and spans to tr.
	setup func(ctx context.Context, e *env, tr *tracer, reg *obs.Registry) (instance, error)
}

// minOps keeps at least ten ops beyond the 90th percentile.
const minOps = 100

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// probesPerSection bounds how many traced ops get the extra layer passes.
const probesPerSection = 8

var workloads = []*workload{campaignWorkload, serviceWorkload, fleetWorkload, perfsimWorkload}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want campaign, service, fleet or perfsim)", name)
}

// runLen bounds an op loop: it runs at least n ops, then keeps going until
// d has passed since the loop began and a whole number of mult ops is done.
// Op i always runs at seed+i, so a faster tree runs further along the same
// sequence.
type runLen struct {
	n    int
	d    time.Duration
	mult int
}

func (r runLen) done(i int, elapsed time.Duration) bool {
	return i >= r.n && elapsed >= r.d && (i == r.n || r.mult <= 1 || i%r.mult == 0)
}

// runFor is w's bound for a timed run of at least d and n ops, n rounded up
// to whole op cycles.
func (w *workload) runFor(n int, d time.Duration) runLen {
	m := max(w.opMultiple, 1)
	return runLen{n: (n + m - 1) / m * m, d: d, mult: m}
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is one run's result.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	// host holds the untraced run's timings in host time, for the record.
	host []metric
	// setupS holds every set-up's host duration; startupS is process start
	// to the first timed op.
	setupS   []float64
	startupS float64
	loop     *loop // untraced runs: the timed op loop
}

// Timings are reported in reference-host time. The host this benchmark was
// built on (a 2-vCPU KVM guest) shares its physical cores with other
// tenants, and their load slows this code by 2× and more for seconds to
// minutes at a time (README.md, "Noise controls"). So a short canary is
// timed before the first timed op (or set-up) and after each one, and each
// host time is scaled by refCanaryMS ÷ the mean canary around it. The
// canary is fixed code, so a change to xedsim moves the scaled time exactly
// as it moves the host time.

// refCanaryMS is shortCanary's time on the reference machine in a quiet
// period; it only sets the unit, so that a scaled time reads as host time
// on that machine.
const refCanaryMS = 3.4

func shortCanary() float64 { return canaryMS(500_000) }

// canaryWindow is how many canaries on each side of a time's own two are
// averaged to scale it. When the host is busiest, consecutive canaries are
// nearly uncorrelated, so one 3.4 ms canary is mostly noise, while the
// level they share moves over seconds; averaging 18 halved the fleet's
// run-to-run spread of op_p50_ms (README.md, "Noise controls").
const canaryWindow = 8

// scaledMS converts host times into reference-host time: times[i] ran
// between canaries can[i] and can[i+1], and is divided by the mean of the
// canaries from can[i-canaryWindow] to can[i+1+canaryWindow] (as many as
// exist) and multiplied by refCanaryMS.
func scaledMS(times, can []float64) []float64 {
	prefix := make([]float64, len(can)+1)
	for i, c := range can {
		prefix[i+1] = prefix[i] + c
	}
	out := make([]float64, len(times))
	for i, d := range times {
		lo, hi := max(i-canaryWindow, 0), min(i+2+canaryWindow, len(can))
		out[i] = d * refCanaryMS * float64(hi-lo) / (prefix[hi] - prefix[lo])
	}
	return out
}

// loop is what opLoop measured.
type loop struct {
	latMS  []float64 // every op's host latency, in op order
	work   float64   // the work of the ops that passed
	failed int
	// canMS holds the canary timed before the first op and right after
	// each op, so op i lies between canMS[i] and canMS[i+1].
	canMS []float64
}

// scaledMS is every op's latency in reference-host time.
func (l *loop) scaledMS() []float64 { return scaledMS(l.latMS, l.canMS) }

// opLoop runs ops 0, 1, ... of inst until rl is done, timing each op
// alone, and checks each output outside the timed region, then hands it to
// after (if set). A failed op, check or after counts the op as failed; its
// latency is still recorded, its work is not.
func opLoop(ctx context.Context, e *env, inst instance, rl runLen, tr *tracer, after func(i int, out any) error) *loop {
	l := &loop{canMS: []float64{shortCanary()}}
	start := time.Now()
	for i := 0; !rl.done(i, time.Since(start)); i++ {
		root := tr.begin("op", 0, i)
		t0 := time.Now()
		out, err := inst.op(ctx, i, tr, root)
		d := time.Since(t0)
		tr.end(root)
		l.latMS = append(l.latMS, ms(d))
		l.canMS = append(l.canMS, shortCanary())
		if err == nil {
			if e.mutate != nil {
				e.mutate(i, out)
			}
			err = inst.check(ctx, i, out)
		}
		if err == nil && after != nil {
			err = after(i, out)
		}
		if err != nil {
			l.failed++
			fmt.Fprintf(e.log, "op %d failed: %v\n", i, err)
			continue
		}
		l.work += inst.work(i)
	}
	return l
}

// warmupOp is the op index of set-up k's warm-up op: negative, so its seed
// is never a timed op's, and 15 mod 20, so every perfsim warm-up simulates
// the same pair (comm2 under SECDED, the cheapest).
func warmupOp(k int) int { return -5 - 20*k }

// setupOnce builds an instance and runs one warm-up op on it, so lazy
// initialisation and caches settle before timing.
func setupOnce(ctx context.Context, w *workload, e *env, k int, tr *tracer, reg *obs.Registry) (instance, error) {
	inst, err := w.setup(ctx, e, tr, reg)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if _, err := inst.op(ctx, warmupOp(k), nil, 0); err != nil {
		inst.close() //nolint:errcheck // the warm-up error is the one to report
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return inst, nil
}

// measure is the untraced run: setupReps set-ups (the last one kept), then
// the op sequence for rl. It yields every end-to-end metric.
func measure(ctx context.Context, w *workload, e *env, rl runLen) (*outcome, error) {
	var inst instance
	var setups []float64
	can := []float64{shortCanary()}
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = setupOnce(ctx, w, e, k, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		can = append(can, shortCanary())
	}
	startup := time.Since(processStart).Seconds()
	l := opLoop(ctx, e, inst, rl, nil, nil)
	if err := inst.close(); err != nil {
		return nil, err
	}
	timings := func(lat, setups []float64) []metric {
		return []metric{
			{"throughput_per_s", l.work / (sum(lat) / 1e3), "1/s"},
			{"op_p50_ms", median(lat), "ms"},
			{"op_p90_ms", quantile(lat, 0.9), "ms"},
			{"setup_s", median(setups), "s"},
		}
	}
	return &outcome{
		metrics:   append(timings(l.scaledMS(), scaledMS(setups, can)), metric{"peak_rss_mb", peakRSSMB(), "MB"}),
		host:      timings(l.latMS, setups),
		attempted: len(l.latMS),
		failed:    l.failed,
		setupS:    setups,
		startupS:  startup,
		loop:      l,
	}, nil
}

// section is one workload's part of a traced run.
type section struct {
	Workload string             `json:"workload"`
	Untraced int                `json:"untraced_ops"`
	Traced   int                `json:"traced_ops"`
	Spans    []span             `json:"spans"`
	SelfMS   map[string]float64 `json:"self_ms"`
}

// traceRun is the traced run. Every workload gets a section, so every
// per-layer metric is measured on the path it belongs to. A section runs
// its ops untraced on one instance, then traced on a second, so the tracing
// overhead is the ratio of the two phases' median op latency. Each phase
// of the named workload's section runs for rl (and at least crossOps/2
// ops); each phase of another's runs crossOps/2 ops. The first
// probesPerSection traced ops are followed by the workload's probe, under
// a root span of its own.
func traceRun(ctx context.Context, named *workload, e *env, rl runLen) (*outcome, []section, error) {
	out := &outcome{}
	var secs []section
	order := []*workload{named}
	for _, w := range workloads {
		if w != named {
			order = append(order, w)
		}
	}
	for _, w := range order {
		m := runLen{n: w.crossOps / 2}
		if w == named {
			m = rl
			m.n = max(m.n, w.crossOps/2)
		}
		inst, err := setupOnce(ctx, w, e, 0, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		plain := opLoop(ctx, e, inst, m, nil, nil)
		if err := inst.close(); err != nil {
			return nil, nil, err
		}
		out.attempted += len(plain.latMS)
		out.failed += plain.failed

		tr, reg := newTracer(), obs.NewRegistry()
		if inst, err = setupOnce(ctx, w, e, 0, tr, reg); err != nil {
			return nil, nil, err
		}
		traced := opLoop(ctx, e, inst, m, tr, func(i int, o any) error {
			if i >= probesPerSection {
				return nil
			}
			root := tr.begin("probe", 0, i)
			defer tr.end(root)
			return inst.probe(ctx, i, o, tr, root)
		})
		out.attempted += len(traced.latMS)
		out.failed += traced.failed
		spans := tr.snapshot()
		out.metrics = append(out.metrics, inst.layers(spans, reg)...)
		overhead := median(traced.scaledMS()) / median(plain.scaledMS())
		out.metrics = append(out.metrics, metric{"trace.overhead." + w.name, overhead, "ratio"})
		if err := inst.close(); err != nil {
			return nil, nil, err
		}
		self := make(map[string]float64)
		for name, d := range layerSelf(spans) {
			self[name] = ms(d)
		}
		secs = append(secs, section{Workload: w.name, Untraced: len(plain.latMS), Traced: len(traced.latMS), Spans: spans, SelfMS: self})
	}
	return out, secs, nil
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// canaryMS times a fixed integer loop of n rounds: it moves only with the
// machine. Its eight independent multiply-add chains keep the core's
// execution units busy, as the workloads do, so it slows when a co-tenant
// shares the physical core; a single dependent chain would not (README.md,
// "Noise controls").
func canaryMS(n int) float64 {
	t0 := time.Now()
	var x [8]uint64
	for i := 0; i < n; i++ {
		for j := range x {
			x[j] = x[j]*6364136223846793005 + uint64(2*j+1)
		}
	}
	d := time.Since(t0)
	canarySink = x[0] ^ x[7]
	return ms(d)
}

// canarySink keeps the canary loop from being optimised away.
var canarySink uint64

// canary runs the canary loop three times and returns the median.
func canary() float64 {
	xs := make([]float64, 3)
	for i := range xs {
		xs[i] = canaryMS(7_000_000)
	}
	return median(xs)
}

func scratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "scratch-")
}
