package service

// Crash recovery: how a restarted daemon picks up exactly where the killed
// one left off.
//
// The durable state is the epoch journal (the WAL in wal.go) plus periodic
// store checkpoints. Rehydration rebuilds the *published* state — the live
// peering map, the delta history, the epoch number — from the newest valid
// checkpoint and the journal records past it.
//
// The published state is not enough to continue, though: the incremental
// scheduler lives on in-memory stage outputs and input hashes that died with
// the process. Rather than persisting every stage's output (large, and a
// second format to keep honest), recovery runs one **warm-up epoch**: the
// session is rewound to lastEpoch-1, the churn sequence is replayed so the
// registry matches what the killed daemon saw, and epoch lastEpoch re-runs
// in full — un-journaled and un-published, because its results are already
// durable. Determinism makes this exact: the warm-up regenerates the same
// outputs and hashes the killed daemon had, which recovery *verifies*
// against the journal (input hashes) and the rehydrated store (row
// attributes) before trusting it. After the warm-up, epoch lastEpoch+1
// schedules — and journals — byte-identically to an uninterrupted run.
//
// Recovery events themselves (torn tails, rejected checkpoints, replay
// counts) are never journaled: the journal must read the same whether or
// not a crash happened. They go to the log and /metrics instead.

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"cloudmap/internal/netblock"
)

// RecoveryInfo reports what rehydration found and did. Zero-valued on a
// fresh start.
type RecoveryInfo struct {
	// Recovered is true when a prior run's journal was found and replayed.
	Recovered bool `json:"recovered"`
	// LastEpoch is the newest durable epoch; the next epoch to run is
	// LastEpoch+1.
	LastEpoch uint64 `json:"last_epoch,omitempty"`
	// CheckpointEpoch is the store checkpoint rehydration started from
	// (0 = none; full journal replay).
	CheckpointEpoch uint64 `json:"checkpoint_epoch,omitempty"`
	// ReplayedEntries counts journal epoch records applied past the
	// checkpoint.
	ReplayedEntries int `json:"replayed_entries,omitempty"`
	// TornTail describes a crash-torn final journal line that was discarded
	// (nil when the journal ended cleanly).
	TornTail *TornTail `json:"torn_tail,omitempty"`
	// RejectedCheckpoints lists checkpoint files that failed validation and
	// were skipped in favor of an older generation.
	RejectedCheckpoints []string `json:"rejected_checkpoints,omitempty"`
}

// Recovery returns what rehydration found when the daemon was built.
func (d *Daemon) Recovery() RecoveryInfo { return d.recovery }

// rehydrate rebuilds the store from the durable state (newest valid
// checkpoint + journal records past it) and records what the warm-up epoch
// must verify against. Called from New; a fresh state dir is a no-op.
func (d *Daemon) rehydrate() error {
	if d.journalPath == "" {
		return nil
	}
	payloads, _, torn, err := readWAL(d.journalPath)
	if err != nil {
		return err
	}
	if torn != nil {
		d.recovery.TornTail = torn
		d.cTornTails.Inc()
		d.log.Warn("journal-torn-tail: journal ends mid-record; that epoch was never durable and will re-run",
			"journal", d.journalPath, "reason", torn.Reason, "bytes", torn.Bytes, "offset", torn.Offset)
	}
	entries, err := parseJournal(payloads)
	if err != nil {
		return fmt.Errorf("service: journal %s: %w", d.journalPath, err)
	}
	if len(entries) == 0 {
		return nil
	}
	last := entries[len(entries)-1]

	ck := loadNewestCheckpoint(d.cfg.StateDir, func(path string, cerr error) {
		d.recovery.RejectedCheckpoints = append(d.recovery.RejectedCheckpoints, filepath.Base(path))
		d.log.Warn("recovery: skipping damaged checkpoint", "checkpoint", filepath.Base(path), "err", cerr)
	})
	if ck != nil && ck.Epoch > last.Epoch {
		// A checkpoint can never be newer than the journal (the journal
		// record lands first); this means the journal was tampered with or
		// the state dir mixes two runs.
		return fmt.Errorf("service: recovery: checkpoint at epoch %d is newer than journal tail %d — state dir is inconsistent", ck.Epoch, last.Epoch)
	}

	byCBI := map[string]Peering{}
	var history []*EpochDeltas
	var trimmed uint64
	if ck != nil {
		for _, p := range ck.Peerings {
			byCBI[p.CBI] = p
		}
		history = ck.History
		trimmed = ck.Trimmed
		d.recovery.CheckpointEpoch = ck.Epoch
	}
	for _, e := range entries {
		if ck != nil && e.Epoch <= ck.Epoch {
			continue
		}
		for _, del := range e.Deltas {
			switch del.Kind {
			case "add", "update":
				byCBI[del.CBI] = del.Peering
			case "remove":
				delete(byCBI, del.CBI)
			default:
				return fmt.Errorf("service: recovery: journal epoch %d has unknown delta kind %q", e.Epoch, del.Kind)
			}
		}
		history = append(history, &EpochDeltas{Epoch: e.Epoch, Deltas: e.Deltas})
		d.recovery.ReplayedEntries++
	}

	snap := &Snapshot{Epoch: last.Epoch, Peerings: make([]Peering, 0, len(byCBI))}
	for _, p := range byCBI {
		ip, perr := netblock.ParseIP(p.CBI)
		if perr != nil {
			return fmt.Errorf("service: recovery: journal row %q: %v", p.CBI, perr)
		}
		p.ip = ip
		snap.Peerings = append(snap.Peerings, p)
	}
	sort.Slice(snap.Peerings, func(i, j int) bool { return snap.Peerings[i].ip < snap.Peerings[j].ip })
	snap.index()
	if len(snap.Peerings) != last.Peerings {
		return fmt.Errorf("service: recovery: replay reconstructs %d peerings at epoch %d but the journal records %d — journal and checkpoints disagree",
			len(snap.Peerings), last.Epoch, last.Peerings)
	}

	d.store.seed(snap, history, trimmed)
	d.recovery.Recovered = true
	d.recovery.LastEpoch = last.Epoch
	d.lastJournal = last
	d.cfg.Progress.SetRecoveredFrom(last.Epoch)
	d.gRecoveredEpoch.Set(float64(last.Epoch))
	return nil
}

// parseJournal decodes validated WAL payloads into epoch records, dropping
// supervision records ("epoch-failed") — those document attempts, not map
// state.
func parseJournal(payloads [][]byte) ([]*journalEntry, error) {
	var entries []*journalEntry
	var prev uint64
	for i, p := range payloads {
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(p, &kind); err != nil {
			return nil, fmt.Errorf("record %d: %v", i+1, err)
		}
		if kind.Kind == journalKindFailure {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(p, &e); err != nil {
			return nil, fmt.Errorf("record %d: %v", i+1, err)
		}
		if e.Epoch != prev+1 {
			return nil, fmt.Errorf("record %d: epoch %d follows %d (journal must be gapless)", i+1, e.Epoch, prev)
		}
		prev = e.Epoch
		entries = append(entries, &e)
	}
	return entries, nil
}

// warmUp re-runs the last durable epoch to regenerate the in-memory stage
// state a restart lost, then verifies the regenerated epoch against the
// durable record. Nothing it does is journaled or published. Called once
// from Run before the epoch loop.
func (d *Daemon) warmUp(ctx context.Context) error {
	last := d.lastJournal
	d.log.Info("recovery: rehydrated store; running warm-up epoch",
		"peerings", len(d.store.Current().Peerings), "epoch", last.Epoch,
		"checkpoint", d.recovery.CheckpointEpoch, "replayed", d.recovery.ReplayedEntries)

	// Replay the churn sequence so the registry entering the warm-up equals
	// the one the killed daemon computed for epoch lastEpoch (churn
	// compounds epoch over epoch from the freshly generated base world).
	if d.cfg.Churn != nil {
		reg := d.session.System().Registry
		for e := uint64(2); e <= last.Epoch; e++ {
			reg = d.cfg.Churn.Apply(reg, e)
		}
		d.session.SetRegistry(reg)
	}
	d.session.SetEpoch(last.Epoch - 1)
	res, rep, err := d.session.RunEpoch(ctx)
	if err != nil {
		return fmt.Errorf("service: recovery warm-up (epoch %d): %w", last.Epoch, err)
	}
	d.mu.Lock()
	d.lastReport = rep
	d.mu.Unlock()

	// A degraded final record has no clean regenerated counterpart to check
	// against (its published map is the previous epoch's); skip verification
	// and let the next epoch re-run from the warm-up's recovered state.
	if last.Failed {
		return nil
	}
	want := make(map[string]string, len(last.Stages))
	for _, js := range last.Stages {
		if js.InputHash != "" {
			want[js.Name] = js.InputHash
		}
	}
	for _, sr := range rep.Stages {
		if w, ok := want[sr.Name]; ok && sr.InputHash != "" && sr.InputHash != w {
			return fmt.Errorf("service: recovery warm-up: stage %s input hash %s != journaled %s — the state dir does not belong to this seed/config/churn plan",
				sr.Name, sr.InputHash, w)
		}
	}
	regen := SnapshotFrom(rep.Epoch, res)
	if msg := snapshotMismatch(d.store.Current(), regen); msg != "" {
		return fmt.Errorf("service: recovery warm-up: regenerated epoch %d disagrees with the journal: %s", last.Epoch, msg)
	}
	return nil
}

// snapshotMismatch compares the rehydrated snapshot to the warm-up's
// regenerated one (attribute equality; FirstEpoch excluded — the regenerated
// snapshot stamps rows with the warm-up epoch, the journal preserves first
// appearance). Both are sorted by CBI. Returns "" when they agree.
func snapshotMismatch(journaled, regen *Snapshot) string {
	if len(journaled.Peerings) != len(regen.Peerings) {
		return fmt.Sprintf("journal has %d rows, warm-up regenerated %d", len(journaled.Peerings), len(regen.Peerings))
	}
	for i := range journaled.Peerings {
		if !journaled.Peerings[i].sameAttrs(regen.Peerings[i]) {
			return fmt.Sprintf("row %s differs (journal %+v, regenerated %+v)",
				journaled.Peerings[i].CBI, journaled.Peerings[i], regen.Peerings[i])
		}
	}
	return ""
}
