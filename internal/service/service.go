package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cloudmap"
	"cloudmap/internal/dispatch"
	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
	"cloudmap/internal/pipeline"
)

// Config tunes the daemon.
type Config struct {
	// Pipeline is the measurement configuration each epoch runs.
	Pipeline cloudmap.Config
	// Churn is the deterministic between-epoch world evolution; nil holds
	// the world fixed (every epoch after the first hash-skips everything).
	Churn *ChurnPlan
	// Epochs is the total epoch target — the daemon stops once the journal
	// holds this many epochs, counting epochs from prior runs of the same
	// state dir, so a restarted daemon converges on the same journal an
	// uninterrupted run produces. 0 means run until stopped.
	Epochs int
	// EpochEvery is the wall-clock pause between epochs. Zero runs them
	// back to back. The pause is scheduling only — epoch numbering and
	// every result are virtual-time, so the interval never affects output.
	EpochEvery time.Duration
	// StateDir, when set, lays out all durable state under one directory:
	// the epoch journal (epochs.wal), probing checkpoints (probes/), and
	// periodic store checkpoints (checkpoint-*.ckpt). It overrides
	// JournalPath and CheckpointDir. A daemon restarted on the same
	// StateDir resumes exactly where the previous process stopped — see
	// recover.go.
	StateDir string
	// CheckpointEvery writes a store checkpoint every N epochs (bounding
	// recovery replay). 0 defaults to 5 when StateDir is set; ignored
	// without a StateDir.
	CheckpointEvery int
	// CheckpointDir persists probing rounds for cross-epoch replay
	// (superseded by StateDir).
	CheckpointDir string
	// JournalPath, when non-empty, appends one CRC-framed deterministic
	// JSON line per epoch (stage statuses + input hashes + deltas; no
	// wall-clock material), fsynced at every epoch (superseded by
	// StateDir). An existing journal is continued, not truncated.
	JournalPath string
	// EpochTimeout bounds one epoch attempt; an attempt that exceeds it
	// fails and is retried like any other epoch failure. 0 disables.
	EpochTimeout time.Duration
	// EpochRetries is how many times a failed epoch is retried (same epoch
	// number) before the supervisor gives up and publishes the epoch
	// degraded. 0 means no retries.
	EpochRetries int
	// RetryBackoff is the pause before the first retry, doubling per
	// subsequent retry. 0 retries immediately.
	RetryBackoff time.Duration
	// HistoryLimit caps the retained delta history; clients asking for
	// deltas older than the horizon are told to resync. 0 keeps everything.
	HistoryLimit int
	// WatchBuffer is the per-subscriber delta buffer; a watcher that falls
	// this many epochs behind is evicted. 0 defaults to 16.
	WatchBuffer int
	// WatchKeepalive is the SSE comment-ping interval keeping idle watch
	// connections alive through proxies and detecting dead peers. 0
	// defaults to 30s; negative disables.
	WatchKeepalive time.Duration
	// Agents lists remote probe-agent base URLs (cloudmapagent processes
	// built from the same world); when non-empty the probing campaigns
	// dispatch their chunks to the fleet, with local fallback when no agent
	// can finish a chunk. Empty probes in-process.
	Agents []string
	// LeaseTimeout is the per-lease deadline for dispatched chunks; an
	// agent that exceeds it is marked lost and the chunk re-dispatches. 0
	// uses the dispatch default (60s).
	LeaseTimeout time.Duration
	// Metrics and Progress wire the admin plane; nil values are created.
	Metrics  *metrics.Registry
	Progress *obs.Progress
	// Log receives supervision and recovery events (never journal
	// material) as structured records; nil discards.
	Log *slog.Logger

	// testEpochErr, when set, injects a failure before an epoch attempt
	// (package tests only — the deterministic pipeline cannot be made to
	// fail on demand). Return nil to let the attempt run.
	testEpochErr func(epoch uint64, attempt int) error
}

const (
	defaultCheckpointEvery = 5
	defaultWatchKeepalive  = 30 * time.Second
	journalKindFailure     = "epoch-failed"
)

// journalStage is the journal's projection of a stage result: scheduling
// outcome only, none of StageResult's wall-clock or allocation telemetry,
// so the journal replays byte-identically run over run.
type journalStage struct {
	Name      string `json:"name"`
	Status    string `json:"status"`
	InputHash string `json:"input_hash,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
}

// journalEntry is one epoch's journal line: the authoritative record of what
// the epoch published. Failed marks an epoch whose retries were exhausted —
// the previous map republished under the new number, deltas empty.
type journalEntry struct {
	Epoch    uint64             `json:"epoch"`
	Failed   bool               `json:"failed,omitempty"`
	Stages   []journalStage     `json:"stages"`
	Deltas   []Delta            `json:"deltas"`
	Peerings int                `json:"peerings"`
	Summary  map[string]float64 `json:"summary,omitempty"`
}

// journalFailure is the journal's record of one failed epoch attempt. It
// documents supervision (what failed, which attempt) and is skipped when the
// journal is replayed for map state.
type journalFailure struct {
	Kind    string         `json:"kind"` // journalKindFailure
	Epoch   uint64         `json:"epoch"`
	Attempt int            `json:"attempt"`
	Error   string         `json:"error"`
	Stages  []journalStage `json:"stages,omitempty"`
}

// Daemon is the resident service: a Session advanced epoch by epoch, a
// Store serving the live map, and a crash-safe epoch journal. Run drives
// the supervised loop; Stop drains it gracefully (the in-flight epoch
// completes, its record reaches disk); cancelling Run's context aborts the
// in-flight epoch instead.
type Daemon struct {
	cfg     Config
	session *cloudmap.Session
	store   *Store
	reg     *metrics.Registry
	log     *slog.Logger

	journalPath string
	ckptDir     string
	wal         *WAL
	recovery    RecoveryInfo
	lastJournal *journalEntry // newest durable epoch record (nil on fresh start)

	cEpochsCompleted *metrics.Counter
	cEpochFailures   *metrics.Counter
	cEpochRetries    *metrics.Counter
	cEpochsDegraded  *metrics.Counter
	cCheckpoints     *metrics.Counter
	cWatchEvictions  *metrics.Counter
	cTornTails       *metrics.Counter
	gRecoveredEpoch  *metrics.Gauge

	stopOnce sync.Once
	stopCh   chan struct{}

	mu         sync.Mutex
	lastReport *cloudmap.EpochReport
}

// New builds the daemon: world generation happens here, and — when the
// journal (or state dir) holds a prior run — so does store rehydration. The
// first epoch (or the recovery warm-up) runs in Run.
func New(cfg Config) (*Daemon, error) {
	if cfg.Churn != nil {
		if err := cfg.Churn.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Progress == nil {
		cfg.Progress = obs.NewProgress(cfg.Metrics)
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if cfg.WatchKeepalive == 0 {
		cfg.WatchKeepalive = defaultWatchKeepalive
	}
	journalPath, probeDir, ckptDir := cfg.JournalPath, cfg.CheckpointDir, ""
	if cfg.StateDir != "" {
		probeDir = filepath.Join(cfg.StateDir, "probes")
		if err := os.MkdirAll(probeDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: state dir: %w", err)
		}
		journalPath = filepath.Join(cfg.StateDir, "epochs.wal")
		ckptDir = cfg.StateDir
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = defaultCheckpointEvery
		}
	}
	var disp *dispatch.Options
	if len(cfg.Agents) > 0 {
		// The dispatch counters join the service.* namespace so the admin
		// plane's /metrics exposes service.leases_granted, .leases_expired,
		// .chunks_rehedged, .agents_lost alongside the epoch counters.
		disp = &dispatch.Options{
			Agents:        cfg.Agents,
			LeaseTimeout:  cfg.LeaseTimeout,
			Metrics:       cfg.Metrics,
			MetricsPrefix: "service",
			Log:           cfg.Log,
		}
	}
	session, err := cloudmap.NewSession(cfg.Pipeline, cloudmap.SessionOptions{
		CheckpointDir: probeDir,
		Metrics:       cfg.Metrics,
		Progress:      cfg.Progress,
		Dispatch:      disp,
	})
	if err != nil {
		return nil, err
	}
	store := NewStore()
	store.historyLimit = cfg.HistoryLimit
	if cfg.WatchBuffer > 0 {
		store.watchBuf = cfg.WatchBuffer
	}
	d := &Daemon{
		cfg: cfg, session: session, store: store, reg: cfg.Metrics, log: cfg.Log.With("component", "service"),
		journalPath: journalPath, ckptDir: ckptDir,

		cEpochsCompleted: cfg.Metrics.Counter("service.epochs_completed"),
		cEpochFailures:   cfg.Metrics.Counter("service.epoch_failures"),
		cEpochRetries:    cfg.Metrics.Counter("service.epoch_retries"),
		cEpochsDegraded:  cfg.Metrics.Counter("service.epochs_degraded"),
		cCheckpoints:     cfg.Metrics.Counter("service.checkpoints_written"),
		cWatchEvictions:  cfg.Metrics.Counter("service.watch_evictions"),
		cTornTails:       cfg.Metrics.Counter("service.journal_torn_tails"),
		gRecoveredEpoch:  cfg.Metrics.Gauge("service.recovered_from_epoch"),

		stopCh: make(chan struct{}),
	}
	store.onEvict = func() { d.cWatchEvictions.Inc() }
	if err := d.rehydrate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Store exposes the live peering map.
func (d *Daemon) Store() *Store { return d.store }

// Epoch returns the last completed and published epoch (0 before the
// first; an in-flight epoch does not count until its snapshot lands).
func (d *Daemon) Epoch() uint64 {
	if snap := d.store.Current(); snap != nil {
		return snap.Epoch
	}
	return 0
}

// LastReport returns the most recent epoch's scheduling report (nil before
// the first epoch completes).
func (d *Daemon) LastReport() *cloudmap.EpochReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastReport
}

// Stop requests a graceful drain: the in-flight epoch finishes, its results
// publish and reach the journal, and Run returns nil. Safe to call from any
// goroutine, repeatedly.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stopCh) })
}

// Done closes when the daemon is stopping (Stop called or Run returned).
func (d *Daemon) Done() <-chan struct{} { return d.stopCh }

// Run executes the supervised epoch loop until the configured epoch target
// is reached, Stop is called, or ctx is cancelled (which aborts the
// in-flight epoch and is the hard path — prefer Stop). Every published
// epoch is durable before the loop advances: its journal record is fsynced,
// so kill -9 at any instant loses at most the epoch in flight, which the
// next Run regenerates bit-for-bit.
func (d *Daemon) Run(ctx context.Context) (err error) {
	// Whatever ends the loop, leave the daemon in the stopped state so
	// streaming watchers (which select on Done) unblock and the HTTP
	// server can drain.
	defer d.Stop()
	// The session's dispatch controller (heartbeat loop) lives as long as
	// the epoch loop.
	defer d.session.Close()
	if d.journalPath != "" {
		wal, _, _, werr := openWAL(d.journalPath)
		if werr != nil {
			return werr
		}
		d.wal = wal
		defer func() {
			if cerr := wal.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("service: journal close: %w", cerr)
			}
		}()
	}
	if d.lastJournal != nil {
		if d.cfg.Epochs > 0 && d.lastJournal.Epoch >= uint64(d.cfg.Epochs) {
			// Target already durable: nothing to run, so skip the warm-up
			// and let the loop condition see the resumed numbering.
			d.session.SetEpoch(d.lastJournal.Epoch)
		} else if err := d.warmUp(ctx); err != nil {
			return err
		}
	}

	for d.cfg.Epochs == 0 || d.session.Epoch() < uint64(d.cfg.Epochs) {
		select {
		case <-d.stopCh:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		epoch := d.session.Epoch() + 1
		if epoch > 1 && d.cfg.Churn != nil {
			// Derive this epoch's world from the previous registry — churn
			// compounds, as real dataset drift does. Applied once per epoch
			// number: retries re-run the epoch against the same world.
			d.session.SetRegistry(d.cfg.Churn.Apply(d.session.System().Registry, epoch))
		}

		res, rep, degraded, runErr := d.superviseEpoch(ctx, epoch)
		if errors.Is(runErr, errStopped) {
			return nil // graceful Stop during a retry backoff
		}
		if runErr != nil {
			return runErr
		}

		var snap *Snapshot
		if degraded {
			// Retries exhausted: republish the previous map under the new
			// epoch number (empty delta set) rather than dying or going
			// dark. The journal records the epoch as failed; the next epoch
			// re-runs every stage (RunEpoch dropped their hashes) and may
			// recover.
			snap = &Snapshot{Epoch: epoch}
			if prev := d.store.Current(); prev != nil {
				// Copy: Diff mutates next's rows in place, and the previous
				// snapshot remains reachable through the history.
				snap.Peerings = append([]Peering(nil), prev.Peerings...)
			}
			snap.index()
			d.cEpochsDegraded.Inc()
			d.cfg.Progress.EpochDegraded()
			d.log.Warn("epoch degraded: republishing previous map", "epoch", epoch, "attempts", 1+d.cfg.EpochRetries)
		} else {
			snap = SnapshotFrom(rep.Epoch, res)
			d.cEpochsCompleted.Inc()
		}
		ed := d.store.Publish(snap)
		d.mu.Lock()
		d.lastReport = rep
		d.mu.Unlock()
		d.cfg.Progress.SetEpoch(epoch)

		if d.wal != nil {
			entry := journalEntry{
				Epoch:    epoch,
				Failed:   degraded,
				Stages:   journalStages(rep),
				Deltas:   ed.Deltas,
				Peerings: len(snap.Peerings),
				Summary:  rep.Summary,
			}
			if entry.Deltas == nil {
				entry.Deltas = []Delta{}
			}
			line, merr := json.Marshal(entry)
			if merr != nil {
				return fmt.Errorf("service: journal encode: %w", merr)
			}
			if aerr := d.wal.Append(line); aerr != nil {
				return aerr
			}
		}
		if d.ckptDir != "" && d.cfg.CheckpointEvery > 0 && epoch%uint64(d.cfg.CheckpointEvery) == 0 {
			if ck := d.store.checkpointState(); ck != nil {
				if cerr := writeCheckpoint(d.ckptDir, ck); cerr != nil {
					return cerr
				}
				d.cCheckpoints.Inc()
			}
		}

		if d.cfg.EpochEvery > 0 && (d.cfg.Epochs == 0 || d.session.Epoch() < uint64(d.cfg.Epochs)) {
			select {
			case <-time.After(d.cfg.EpochEvery):
			case <-d.stopCh:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// superviseEpoch runs one epoch under the supervision policy: each attempt
// is deadline-bounded and panic-contained (the pipeline converts stage
// panics to errors); a failed attempt is journaled, backed off, and retried
// with the same epoch number up to EpochRetries times. degraded reports
// that every attempt failed and the caller must publish the previous map.
// A non-nil error is fatal (context cancelled, journal unwritable) and
// stops the daemon.
func (d *Daemon) superviseEpoch(ctx context.Context, epoch uint64) (res *cloudmap.Result, rep *cloudmap.EpochReport, degraded bool, err error) {
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			// Rewind the counter the failed attempt consumed: a retry must
			// run as the same epoch, not a fresh one.
			d.session.SetEpoch(epoch - 1)
			d.cEpochRetries.Inc()
		}
		var runErr error
		res, rep, runErr = d.attemptEpoch(ctx, epoch, attempt)
		if runErr == nil {
			return res, rep, false, nil
		}
		if ctx.Err() != nil {
			// The parent context died (hard abort), not the per-epoch
			// deadline: stop, don't retry.
			return nil, nil, false, runErr
		}
		d.cEpochFailures.Inc()
		d.log.Warn("epoch attempt failed", "epoch", epoch, "attempt", attempt, "max", 1+d.cfg.EpochRetries, "err", runErr)
		if d.wal != nil {
			rec := journalFailure{Kind: journalKindFailure, Epoch: epoch, Attempt: attempt, Error: runErr.Error(), Stages: journalStages(rep)}
			line, merr := json.Marshal(rec)
			if merr != nil {
				return nil, nil, false, fmt.Errorf("service: journal encode: %w", merr)
			}
			if aerr := d.wal.Append(line); aerr != nil {
				return nil, nil, false, aerr
			}
		}
		if attempt > d.cfg.EpochRetries {
			return nil, rep, true, nil
		}
		if d.cfg.RetryBackoff > 0 {
			backoff := d.cfg.RetryBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-d.stopCh:
				return nil, nil, false, errStopped
			case <-ctx.Done():
				return nil, nil, false, ctx.Err()
			}
		}
	}
}

// errStopped marks a graceful Stop arriving during a retry backoff; Run
// translates it to a clean nil return.
var errStopped = errors.New("service: stopped")

// attemptEpoch runs one epoch attempt under the per-epoch deadline.
func (d *Daemon) attemptEpoch(ctx context.Context, epoch uint64, attempt int) (*cloudmap.Result, *cloudmap.EpochReport, error) {
	if d.cfg.testEpochErr != nil {
		if terr := d.cfg.testEpochErr(epoch, attempt); terr != nil {
			// Consume the epoch number the way a failed RunEpoch would.
			d.session.SetEpoch(epoch)
			return nil, &cloudmap.EpochReport{Epoch: epoch}, terr
		}
	}
	ectx := ctx
	if d.cfg.EpochTimeout > 0 {
		var cancel context.CancelFunc
		ectx, cancel = context.WithTimeout(ctx, d.cfg.EpochTimeout)
		defer cancel()
	}
	return d.session.RunEpoch(ectx)
}

// journalStages projects an epoch report into the journal's stage records
// (not-run stages omitted, as scheduling noise).
func journalStages(rep *cloudmap.EpochReport) []journalStage {
	if rep == nil {
		return nil
	}
	var out []journalStage
	for _, sr := range rep.Stages {
		if sr.Status == pipeline.StatusNotRun {
			continue
		}
		out = append(out, journalStage{
			Name: sr.Name, Status: string(sr.Status), InputHash: sr.InputHash, Degraded: sr.Degraded,
		})
	}
	return out
}
