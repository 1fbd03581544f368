package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cloudmap"
	"cloudmap/internal/datasets"
	"cloudmap/internal/faults"
	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
	"cloudmap/internal/pipeline"
	"cloudmap/internal/probe"
	"cloudmap/internal/service"
)

// obsPairs is how many plain/observed op pairs the observability overhead
// is the median of.
const obsPairs = 3

// plans are the checked-in fault, dirty-data and churn plans. All three are
// loaded before anything runs, so a bad path fails the benchmark at once.
type plans struct {
	faults *faults.Plan
	dirty  *datasets.DirtyPlan
	churn  *service.ChurnPlan
}

func loadPlans(faultPath, dirtyPath, churnPath string) (plans, error) {
	var p plans
	var err error
	if p.faults, err = faults.LoadPlan(faultPath); err != nil {
		return p, fmt.Errorf("fault plan: %w", err)
	}
	if p.dirty, err = datasets.LoadDirtyPlan(dirtyPath); err != nil {
		return p, fmt.Errorf("dirty plan: %w", err)
	}
	if p.churn, err = service.LoadChurnPlan(churnPath); err != nil {
		return p, fmt.Errorf("churn plan: %w", err)
	}
	return p, nil
}

// opResult is what one measured op produced.
type opResult struct {
	wall   time.Duration
	digest string
	res    *cloudmap.Result
	stages []pipeline.StageResult
}

// workload is one benchmark workload: a set-up, timed as setup_s, and an
// op, timed as run_s, whose output digest must equal the reference the
// same inputs give at Workers=1.
type workload interface {
	// config is the pipeline configuration at the given worker count.
	config(workers int) cloudmap.Config
	// setup prepares the ops; the benchmark calls it several times, with
	// close before each call, and the ops run on the last one.
	setup(ctx context.Context) error
	// op runs one measured operation.
	op(ctx context.Context) (opResult, error)
	// reference recomputes the outputs of the first n ops at Workers=1 and
	// returns their digests plus the last result.
	reference(ctx context.Context, n int) ([]string, *cloudmap.Result, error)
	// observe sets obs.journal_overhead_pct and the probe layer's fault
	// accounting from pairs of the op with observability off and on,
	// reporting an observed op whose output differs through fail. It
	// returns how many ops it ran.
	observe(ctx context.Context, vals map[string]float64, fail func(string, ...any)) (int, error)
	// close releases the last set-up; safe to call repeatedly.
	close()
}

func newWorkload(name string, seed uint64, workers int, p plans, workdir string) (workload, error) {
	base := cloudmap.SmallConfig()
	base.Topology.Seed = seed
	switch name {
	case "fresh":
		return &batch{configs{base, workers}}, nil
	case "chaos":
		base.Faults = p.faults
		base.Dirty = p.dirty
		base.Retry = probe.DefaultRetryPolicy()
		return &batch{configs{base, workers}}, nil
	case "epoch-churn":
		return &churn{configs: configs{base, workers}, plan: p.churn, workdir: workdir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fresh, chaos or epoch-churn)", name)
}

// configs is a workload's pipeline configuration and its ops' worker count.
type configs struct {
	base    cloudmap.Config
	workers int
}

func (c configs) config(workers int) cloudmap.Config {
	cfg := c.base
	cfg.Workers = workers
	return cfg
}

// timedOp is one run of a workload's op for the observability overhead:
// its wall time and output digest.
type timedOp func() (time.Duration, string, error)

// overheadPairs runs obsPairs pairs of a plain and an observed op, the
// plain one first in even pairs and second in odd ones, so neither side
// always runs on the heap the other left. It returns the median
// observed/plain wall-time ratio and how many ops it ran. An observed op
// whose digest differs from its plain partner's is reported through fail;
// an op error ends the pairs.
func overheadPairs(plain, observed timedOp, fail func(string, ...any)) (float64, int, error) {
	var ratios []float64
	runs := 0
	for i := 0; i < obsPairs; i++ {
		var walls [2]time.Duration
		var digests [2]string
		for j := 0; j < 2; j++ {
			side := (i + j) % 2 // 0 plain, 1 observed
			op := plain
			if side == 1 {
				op = observed
			}
			runtime.GC()
			runs++
			var err error
			if walls[side], digests[side], err = op(); err != nil {
				return 0, runs, fmt.Errorf("observability pair %d: %w", i, err)
			}
		}
		if digests[1] != digests[0] {
			fail("observability pair %d: observed output %.12s differs from the plain output %.12s", i, digests[1], digests[0])
		}
		ratios = append(ratios, walls[1].Seconds()/walls[0].Seconds())
	}
	return median(ratios), runs, nil
}

// batch is the cmd/cloudmap reproduction: each op builds a new world and
// runs the whole pipeline on it without checkpoints, so nothing carries
// over between ops. fresh and chaos differ only in their plans.
type batch struct {
	configs
}

func (b *batch) setup(context.Context) error {
	_, err := cloudmap.NewSystem(b.config(b.workers))
	return err
}

func (b *batch) op(ctx context.Context) (opResult, error) {
	var (
		res *cloudmap.Result
		rep *cloudmap.RunReport
		err error
	)
	wall := timed(func() {
		res, rep, err = cloudmap.RunPipeline(ctx, nil, b.config(b.workers), cloudmap.RunOptions{})
	})
	if err != nil {
		return opResult{}, err
	}
	return opResult{wall: wall, digest: digest(res, rep.Manifest.Summary), res: res, stages: rep.Manifest.Stages}, nil
}

func (b *batch) reference(ctx context.Context, n int) ([]string, *cloudmap.Result, error) {
	res, rep, err := cloudmap.RunPipeline(ctx, nil, b.config(1), cloudmap.RunOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	d := digest(res, rep.Manifest.Summary)
	out := make([]string, n)
	for i := range out {
		out[i] = d
	}
	return out, res, nil
}

// observe pairs the op with the same op writing its event journal to
// /dev/null and feeding live progress. The observed runs' journal event
// counts give the probe layer's fault and retry accounting.
func (b *batch) observe(ctx context.Context, vals map[string]float64, fail func(string, ...any)) (int, error) {
	var observedRep *cloudmap.RunReport
	runOp := func(observed bool) timedOp {
		return func() (time.Duration, string, error) {
			var opts cloudmap.RunOptions
			if observed {
				reg := metrics.NewRegistry()
				opts = cloudmap.RunOptions{Metrics: reg, JournalPath: os.DevNull, Progress: obs.NewProgress(reg)}
			}
			var (
				res *cloudmap.Result
				rep *cloudmap.RunReport
				err error
			)
			wall := timed(func() { res, rep, err = cloudmap.RunPipeline(ctx, nil, b.config(b.workers), opts) })
			if err != nil {
				return 0, "", err
			}
			if observed {
				observedRep = rep
			}
			return wall, digest(res, rep.Manifest.Summary), nil
		}
	}
	ratio, n, err := overheadPairs(runOp(false), runOp(true), fail)
	if err != nil {
		return n, err
	}
	vals["obs.journal_overhead_pct"] = 100 * (ratio - 1)
	faultVals(observedRep, vals)
	return n, nil
}

// faultVals derives the probe layer's fault and retry accounting from an
// observed run. Faulted attempts are the journal's fault events. The retry
// loop re-probes only after a faulted attempt, so every target resolved in
// k>1 attempts had k-1 faulted ones, and its last attempt was faulted too
// exactly when it gave up: faulted = retries + gave-up targets. (The retry
// budget is unlimited in every workload, so no target gives up before its
// last attempt.)
func faultVals(rep *cloudmap.RunReport, vals map[string]float64) {
	faulted := float64(rep.Manifest.Trace.Spans["fault:point"])
	var retries, retried float64
	if d := rep.Manifest.Degradation; d != nil {
		retries = float64(d.RetriesSpent)
		for _, cs := range d.Rounds {
			for k, n := range cs.Attempts {
				if k > 0 {
					retried += float64(n)
				}
			}
		}
	}
	vals["probe.retries"] = retries
	vals["probe.faulted_attempts"] = faulted
	vals["probe.retry_recovered_ratio"] = 0
	if retries > 0 {
		vals["probe.retry_recovered_ratio"] = (retried - (faulted - retries)) / retries
	}
}

func (b *batch) close() {}

// churn is the cloudmapd epoch loop: set-up is a session with a checkpoint
// dir plus one priming epoch; each op derives the next epoch's registry
// from the churn plan and runs the epoch, which replays both probing
// rounds from their checkpoints.
type churn struct {
	configs
	plan    *service.ChurnPlan
	workdir string

	setups int
	dir    string
	sess   *cloudmap.Session
	// counters holds the session's stage counters as of its last epoch.
	// A session's metrics registry accumulates over its lifetime, so an
	// op's own counts are the difference.
	counters map[string]int64
}

// primed starts a session at the given worker count with its checkpoints
// in dir and runs its priming epoch.
func (c *churn) primed(ctx context.Context, workers int, dir string, opts cloudmap.SessionOptions) (*cloudmap.Session, *cloudmap.EpochReport, error) {
	opts.CheckpointDir = dir
	s, err := cloudmap.NewSession(c.config(workers), opts)
	if err != nil {
		return nil, nil, err
	}
	_, rep, err := s.RunEpoch(ctx)
	if err != nil {
		s.Close()
		return nil, nil, fmt.Errorf("priming epoch: %w", err)
	}
	return s, rep, nil
}

func (c *churn) setup(ctx context.Context) error {
	c.setups++
	c.dir = filepath.Join(c.workdir, fmt.Sprintf("session-%d", c.setups))
	sess, rep, err := c.primed(ctx, c.workers, c.dir, cloudmap.SessionOptions{})
	if err != nil {
		return err
	}
	c.sess = sess
	c.counters = map[string]int64{}
	c.perOp(rep.Stages)
	return nil
}

// perOp rewrites an epoch's cumulative stage counters as the epoch's own.
func (c *churn) perOp(stages []pipeline.StageResult) []pipeline.StageResult {
	out := make([]pipeline.StageResult, len(stages))
	for i, sr := range stages {
		out[i] = sr
		if sr.Counters == nil {
			continue
		}
		out[i].Counters = make(map[string]int64, len(sr.Counters))
		for k, v := range sr.Counters {
			key := sr.Name + "/" + k
			out[i].Counters[k] = v - c.counters[key]
			c.counters[key] = v
		}
	}
	return out
}

// advance applies the churn plan for the session's next epoch and runs it.
func (c *churn) advance(ctx context.Context, s *cloudmap.Session) (*cloudmap.Result, *cloudmap.EpochReport, error) {
	epoch := s.Epoch() + 1
	s.SetRegistry(c.plan.Apply(s.System().Registry, epoch))
	res, rep, err := s.RunEpoch(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("epoch %d: %w", epoch, err)
	}
	return res, rep, nil
}

// epochOp times one advance of s as a timedOp.
func (c *churn) epochOp(ctx context.Context, s *cloudmap.Session) timedOp {
	return func() (time.Duration, string, error) {
		start := time.Now()
		res, rep, err := c.advance(ctx, s)
		if err != nil {
			return 0, "", err
		}
		return time.Since(start), digest(res, rep.Summary), nil
	}
}

func (c *churn) op(ctx context.Context) (opResult, error) {
	start := time.Now()
	res, rep, err := c.advance(ctx, c.sess)
	wall := time.Since(start)
	if err != nil {
		return opResult{}, err
	}
	return opResult{wall: wall, digest: digest(res, rep.Summary), res: res, stages: c.perOp(rep.Stages)}, nil
}

// reference replays the measured session at Workers=1. It shares the
// measured session's checkpoint dir: the ops never probe live (they replay
// the checkpoints), so the Workers=1 session replaying the same files
// recomputes exactly what the ops computed.
func (c *churn) reference(ctx context.Context, n int) ([]string, *cloudmap.Result, error) {
	// Release the measured session first, so the two never hold memory at
	// once and the peak RSS stays the ops' own.
	c.sess.Close()
	c.sess = nil
	runtime.GC()
	s, _, err := c.primed(ctx, 1, c.dir, cloudmap.SessionOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	defer s.Close()
	var res *cloudmap.Result
	out := make([]string, 0, n)
	for len(out) < n {
		r, rep, err := c.advance(ctx, s)
		if err != nil {
			return nil, nil, fmt.Errorf("reference: %w", err)
		}
		res = r
		out = append(out, digest(r, rep.Summary))
	}
	return out, res, nil
}

// observe pairs epochs of two sessions that differ only in observability.
// A session takes no event journal, so what the daemon can turn on for its
// epoch loop is live progress on the session's metrics registry. Both
// sessions are primed outside the timing and advance through the same
// churn epochs. The epochs replay their checkpoints and the workload has
// no fault plan, so there are no probe faults or retries to count.
func (c *churn) observe(ctx context.Context, vals map[string]float64, fail func(string, ...any)) (int, error) {
	plain, _, err := c.primed(ctx, c.workers, filepath.Join(c.workdir, "plain"), cloudmap.SessionOptions{})
	if err != nil {
		return 0, err
	}
	defer plain.Close()
	reg := metrics.NewRegistry()
	observed, _, err := c.primed(ctx, c.workers, filepath.Join(c.workdir, "observed"),
		cloudmap.SessionOptions{Metrics: reg, Progress: obs.NewProgress(reg)})
	if err != nil {
		return 0, err
	}
	defer observed.Close()
	ratio, n, err := overheadPairs(c.epochOp(ctx, plain), c.epochOp(ctx, observed), fail)
	if err != nil {
		return n, err
	}
	vals["obs.journal_overhead_pct"] = 100 * (ratio - 1)
	vals["probe.retries"] = 0
	vals["probe.faulted_attempts"] = 0
	vals["probe.retry_recovered_ratio"] = 0
	return n, nil
}

func (c *churn) close() {
	if c.sess != nil {
		c.sess.Close()
		c.sess = nil
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
	}
}
