package datasets

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"cloudmap/internal/rng"
)

// Dirt is the corruption profile of one dataset. Fractions are independent
// per-record probabilities; each record draws once per dimension with its
// own salt, so the dimensions never correlate. The zero Dirt injects
// nothing.
type Dirt struct {
	// DropFrac silently omits the record from the serialized file — the
	// quarantine cannot see what was never published, so drops surface only
	// as reduced coverage.
	DropFrac float64 `json:"drop_frac,omitempty"`
	// TruncateFrac cuts the record's text in half mid-field, the way a
	// partial mirror sync or interrupted download does; the validating
	// parser quarantines the remains as malformed.
	TruncateFrac float64 `json:"truncate_frac,omitempty"`
	// StaleFrac backdates the record's timestamp ~3 years, past the
	// parser's staleness cutoff. A no-op for datasets without timestamps
	// (as2org, asrel, cones, rdns).
	StaleFrac float64 `json:"stale_frac,omitempty"`
	// ConflictFrac emits a duplicate of the record with a different origin
	// ASN; the parser resolves the conflict (majority vote, ties to the
	// lowest ASN), quarantines the loser, and marks the survivor suspect.
	// Only rib and whois records carry origins; a no-op elsewhere.
	ConflictFrac float64 `json:"conflict_frac,omitempty"`
	// BogonFrac rewrites the record's ASN to AS_TRANS (23456); the parser
	// quarantines it as a bogon.
	BogonFrac float64 `json:"bogon_frac,omitempty"`
}

// zero reports whether the profile injects nothing.
func (d Dirt) zero() bool {
	return d.DropFrac == 0 && d.TruncateFrac == 0 && d.StaleFrac == 0 &&
		d.ConflictFrac == 0 && d.BogonFrac == 0
}

// DirtyPlan configures dataset corruption. The zero plan injects nothing;
// datasets are corrupted by presence in Datasets. Plans are plain JSON
// documents (see testdata/dirtyplans in the repository root) so chaos runs
// can be replayed under a recorded dirtiness profile.
type DirtyPlan struct {
	// Seed is mixed with the topology seed so the same plan corrupts
	// different (but individually reproducible) records across simulated
	// worlds.
	Seed uint64 `json:"seed"`
	// Datasets maps dataset names (see DirtyableDatasets) to their
	// corruption profiles. Unknown names are rejected at validation so a
	// typo fails loudly instead of silently corrupting nothing.
	Datasets map[string]Dirt `json:"datasets"`
}

// Validate rejects unknown dataset names and out-of-range fractions with a
// field-specific error, mirroring faults.Plan.Validate.
func (p *DirtyPlan) Validate() error {
	dirtiable := make(map[string]bool, len(DirtyableDatasets))
	for _, ds := range DirtyableDatasets {
		dirtiable[ds] = true
	}
	checkFrac := func(ds, name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("datasets: %s.%s = %v out of [0,1]", ds, name, v)
		}
		return nil
	}
	for ds, d := range p.Datasets {
		if !dirtiable[ds] {
			return fmt.Errorf("datasets: unknown or undirtiable dataset %q in plan", ds)
		}
		if err := checkFrac(ds, "drop_frac", d.DropFrac); err != nil {
			return err
		}
		if err := checkFrac(ds, "truncate_frac", d.TruncateFrac); err != nil {
			return err
		}
		if err := checkFrac(ds, "stale_frac", d.StaleFrac); err != nil {
			return err
		}
		if err := checkFrac(ds, "conflict_frac", d.ConflictFrac); err != nil {
			return err
		}
		if err := checkFrac(ds, "bogon_frac", d.BogonFrac); err != nil {
			return err
		}
	}
	return nil
}

// LoadDirtyPlan reads and validates a JSON plan file (the -dirty-plan
// flag). Unknown fields are rejected so a typoed knob fails loudly.
func LoadDirtyPlan(path string) (*DirtyPlan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("datasets: read plan: %w", err)
	}
	return ParseDirtyPlan(raw)
}

// ParseDirtyPlan decodes and validates a JSON plan document.
func ParseDirtyPlan(raw []byte) (*DirtyPlan, error) {
	var p DirtyPlan
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("datasets: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Draw salts: one per corruption dimension so draws never correlate.
const (
	saltDrop     = 0xd20b
	saltTruncate = 0x7204c
	saltStale    = 0x57a1e
	saltConflict = 0xc0f1
	saltBogon    = 0xb090
)

// dirtier evaluates one DirtyPlan against one dataset. The zero dirtier
// (nil plan or absent dataset) corrupts nothing.
type dirtier struct {
	d    Dirt
	seed uint64
	ds   string
}

// dirtierFor builds the per-dataset corruption view. seed is the topology
// seed; the plan's own seed is mixed in so distinct plans diverge.
func dirtierFor(plan *DirtyPlan, seed uint64, ds string) dirtier {
	if plan == nil {
		return dirtier{ds: ds}
	}
	return dirtier{d: plan.Datasets[ds], seed: rng.Mix64(plan.Seed ^ seed ^ 0xd127), ds: ds}
}

// draw is the per-(record, dimension) coin: a pure function of the plan
// seed, topology seed, dataset, record key, and dimension salt — never of
// serialization order.
func (dt dirtier) draw(salt uint64, key string) float64 {
	return rng.Unit(rng.StrHash(rng.StrHash(rng.Mix64(dt.seed^salt), dt.ds), key))
}

func (dt dirtier) drop(key string) bool {
	return dt.d.DropFrac > 0 && dt.draw(saltDrop, key) < dt.d.DropFrac
}
func (dt dirtier) truncate(key string) bool {
	return dt.d.TruncateFrac > 0 && dt.draw(saltTruncate, key) < dt.d.TruncateFrac
}
func (dt dirtier) stale(key string) bool {
	return dt.d.StaleFrac > 0 && dt.draw(saltStale, key) < dt.d.StaleFrac
}
func (dt dirtier) conflict(key string) bool {
	return dt.d.ConflictFrac > 0 && dt.draw(saltConflict, key) < dt.d.ConflictFrac
}
func (dt dirtier) bogon(key string) bool {
	return dt.d.BogonFrac > 0 && dt.draw(saltBogon, key) < dt.d.BogonFrac
}
