// Package datasets is the hygiene layer between internal/registry and the
// inference stages. The paper's pipeline consumes third-party public
// datasets — BGP snapshots, WHOIS delegations, merged PeeringDB/PCH/CAIDA
// IXP lists, AS-to-organisation maps, reverse DNS — and §5/§6 exist
// precisely because those sources are incomplete, stale, and occasionally
// wrong. Instead of handing registry structs to the inference code as
// gospel, this package round-trips every dataset through an on-disk textual
// format shaped like its real counterpart (bgpdump -m RIB lines, RPSL WHOIS
// blocks, CAIDA-style JSONL exchange and facility dumps, pipe-delimited
// as2org and as-rel files) and loads it back through strict validating
// parsers:
//
//   - malformed or implausible records are rejected into a per-dataset
//     quarantine with a typed reason (bad prefix, bogon ASN, conflicting
//     origin, dangling member, stale timestamp, malformed record) instead of
//     aborting the run;
//   - every accepted record carries provenance (dataset, line);
//   - records whose origin had to be conflict-resolved are marked suspect,
//     and annotations they back surface Annotation.Suspect so inference can
//     label dependent outputs low-confidence rather than asserting them;
//   - a coverage summary (kept / quarantined / conflict-resolved per
//     dataset) lands in the run manifest's dataset_hygiene section.
//
// A deterministic corruption model (DirtyPlan, same hash-of-(seed, entity)
// discipline as internal/faults) injects staleness, row drops, truncation,
// and conflicting duplicates at serialization time, so chaos tests can
// assert that inference quality degrades smoothly — and replays
// byte-identically for the same seed and plan at any worker count.
package datasets

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"cloudmap/internal/netblock"
	"cloudmap/internal/obs"
	"cloudmap/internal/registry"
	"cloudmap/internal/rng"
)

// Dataset names. Each is one file in the serialized corpus.
const (
	DSRib        = "rib"        // BGP RIB dump, bgpdump -m TABLE_DUMP2 lines
	DSWhois      = "whois"      // RPSL-style delegation blocks
	DSIXPs       = "ixps"       // merged exchange list, one JSON object per line
	DSFacilities = "facilities" // colocation facility list, JSONL
	DSAs2org     = "as2org"     // CAIDA as2org pipe format
	DSASRel      = "asrel"      // CAIDA as-rel pipe format
	DSCones      = "cones"      // customer-cone sizes in /24s
	DSRDNS       = "rdns"       // reverse-DNS zone
	DSClouds     = "clouds"     // published cloud ASN sets + DX cities (authoritative)
)

// fileOf maps dataset names to corpus file names.
var fileOf = map[string]string{
	DSRib:        "rib.txt",
	DSWhois:      "whois.txt",
	DSIXPs:       "ixps.jsonl",
	DSFacilities: "facilities.jsonl",
	DSAs2org:     "as2org.txt",
	DSASRel:      "asrel.txt",
	DSCones:      "cones.txt",
	DSRDNS:       "rdns.txt",
	DSClouds:     "clouds.jsonl",
}

// FileOf returns the corpus file name of a dataset ("" for unknown names) —
// the key into Corpus.Files consumers hash or inspect per dataset.
func FileOf(ds string) string { return fileOf[ds] }

// DirtyableDatasets lists the datasets a DirtyPlan may corrupt, in canonical
// order. The clouds dataset is excluded: it stands in for data the provider
// publishes authoritatively (Amazon's ip-ranges and Direct Connect pages).
var DirtyableDatasets = []string{DSRib, DSWhois, DSIXPs, DSFacilities, DSAs2org, DSASRel, DSCones, DSRDNS}

// Datasets lists every dataset in canonical order.
var Datasets = []string{DSRib, DSWhois, DSIXPs, DSFacilities, DSAs2org, DSASRel, DSCones, DSRDNS, DSClouds}

// Reason is a typed quarantine cause.
type Reason string

// Quarantine reasons.
const (
	ReasonBadPrefix  Reason = "bad-prefix"         // unparseable prefix/address or misaligned range
	ReasonBogonASN   Reason = "bogon-asn"          // AS0, AS_TRANS, or reserved/private ASN
	ReasonConflict   Reason = "conflicting-origin" // duplicate records disagreed; loser rejected
	ReasonDangling   Reason = "dangling-member"    // member/tenant ASN absent from as2org
	ReasonStale      Reason = "stale-timestamp"    // record older than the staleness cutoff
	ReasonMalformed  Reason = "malformed-record"   // wrong shape: field count, JSON syntax, truncation
	ReasonBadRelType Reason = "bad-relationship"   // as-rel label outside {-1, 0}
)

// Provenance says where an accepted record came from.
type Provenance struct {
	Dataset string `json:"dataset"`
	// Line is the 1-based line (or block, for whois) in the dataset file.
	Line int `json:"line"`
}

// Quarantined is one rejected record.
type Quarantined struct {
	Prov   Provenance `json:"prov"`
	Reason Reason     `json:"reason"`
	// Record is a short excerpt of the offending text.
	Record string `json:"record"`
}

// RIBRecord is one accepted announced prefix (origin votes resolved).
type RIBRecord struct {
	Prov    Provenance
	Prefix  netblock.Prefix
	Origin  registry.ASN
	Updated int64 // unix seconds
	// Suspect marks records whose origin was conflict-resolved.
	Suspect bool
}

// WhoisRecord is one accepted delegation.
type WhoisRecord struct {
	Prov    Provenance
	Prefix  netblock.Prefix
	Origin  registry.ASN
	Updated int64
	Suspect bool
}

// IXPRecord is one accepted exchange with its member assignments.
type IXPRecord struct {
	Prov        Provenance
	Info        registry.IXPInfo
	Assignments map[netblock.IP]registry.ASN
	Updated     int64
}

// FacilityRecord is one accepted colocation facility.
type FacilityRecord struct {
	Prov    Provenance
	Info    registry.FacilityInfo
	Updated int64
}

// OrgRecord is one accepted as2org organisation row.
type OrgRecord struct {
	Prov Provenance
	ID   string
	Name string
}

// ASRecord is one accepted as2org aut row.
type ASRecord struct {
	Prov  Provenance
	ASN   registry.ASN
	OrgID string
}

// LinkRecord is one accepted as-rel adjacency.
type LinkRecord struct {
	Prov Provenance
	A, B registry.ASN
	Rel  registry.Rel
}

// ConeRecord is one accepted customer-cone size.
type ConeRecord struct {
	Prov Provenance
	ASN  registry.ASN
	N    int
}

// DNSRecord is one accepted reverse-DNS entry.
type DNSRecord struct {
	Prov Provenance
	IP   netblock.IP
	Name string
}

// CloudRecord is one accepted published cloud entry.
type CloudRecord struct {
	Prov     Provenance
	Name     string
	ASNs     []registry.ASN
	DXCities []string
}

// DatasetSummary is one dataset's coverage accounting.
type DatasetSummary struct {
	Kept             int64            `json:"kept"`
	Quarantined      int64            `json:"quarantined,omitempty"`
	ConflictResolved int64            `json:"conflict_resolved,omitempty"`
	Reasons          map[string]int64 `json:"reasons,omitempty"`
}

// HygieneReport is the manifest's dataset_hygiene section: per-dataset
// coverage plus run-level totals. Map keys marshal sorted, so the JSON form
// is byte-stable for a given load.
type HygieneReport struct {
	Datasets         map[string]*DatasetSummary `json:"datasets"`
	TotalKept        int64                      `json:"total_kept"`
	TotalQuarantined int64                      `json:"total_quarantined"`
	TotalConflicts   int64                      `json:"total_conflicts"`
	// EmptyDatasets lists dirtiable datasets with zero surviving records;
	// stages that depend on them run degraded (or sit the run out) instead
	// of emitting unlabeled results.
	EmptyDatasets []string `json:"empty_datasets,omitempty"`
}

// summary returns (allocating if needed) the named dataset's summary.
func (h *HygieneReport) summary(ds string) *DatasetSummary {
	s := h.Datasets[ds]
	if s == nil {
		s = &DatasetSummary{}
		h.Datasets[ds] = s
	}
	return s
}

// View is the hygiene layer's output: the accepted records (with
// provenance), the rebuilt registry the inference stages consume, the
// quarantine, and the coverage report.
type View struct {
	Registry *registry.Registry
	Report   *HygieneReport

	RIB        []RIBRecord
	Whois      []WhoisRecord
	IXPs       []IXPRecord
	Facilities []FacilityRecord
	Orgs       []OrgRecord
	ASes       []ASRecord
	Links      []LinkRecord
	Cones      []ConeRecord
	DNS        []DNSRecord
	Clouds     []CloudRecord

	Quarantine []Quarantined
}

// Empty reports whether the named dataset has zero surviving records. A
// nil view (hygiene never ran) reports nothing empty.
func (v *View) Empty(ds string) bool {
	if v == nil {
		return false
	}
	for _, name := range v.Report.EmptyDatasets {
		if name == ds {
			return true
		}
	}
	return false
}

// EmitQuarantine records every quarantine decision as a journal event on
// sp (kind "quarantine", named by the typed reason). Quarantine entries are
// appended in deterministic parse order, so keying by index keeps the event
// stream replayable.
func (v *View) EmitQuarantine(sp *obs.Span) {
	if v == nil || sp == nil {
		return
	}
	for i, q := range v.Quarantine {
		sp.Event("quarantine", string(q.Reason), uint64(i), obs.Attrs{
			"dataset": q.Prov.Dataset,
			"line":    strconv.Itoa(q.Prov.Line),
			"record":  q.Record,
		})
	}
}

// Corpus is a serialized dataset set: file name -> content.
type Corpus struct {
	Files map[string][]byte
}

// WriteDir persists every dataset file into dir (creating it).
func (c *Corpus) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("datasets: %w", err)
	}
	names := make([]string, 0, len(c.Files))
	for name := range c.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), c.Files[name], 0o644); err != nil {
			return fmt.Errorf("datasets: %w", err)
		}
	}
	return nil
}

// file returns the named dataset's content ("" for a missing file — parsers
// treat that as an empty dataset).
func (c *Corpus) file(ds string) []byte { return c.Files[fileOf[ds]] }

// baseUnix is the corpus collection instant (2019-02-04, the paper's
// campaign era). Every record timestamp is derived from it; nothing in this
// package reads the wall clock, so serialization is replayable.
const baseUnix int64 = 1549238400

// staleCutoffSec: records older than this before baseUnix are quarantined as
// stale (540 days — roughly the paper's tolerance for delegation data).
const staleCutoffSec int64 = 540 * 86400

// freshWindowSec spreads genuine record timestamps over the 180 days before
// collection.
const staleAgeSec int64 = 3 * 365 * 86400

const freshWindowSec int64 = 180 * 86400

// recordTS stamps one record deterministically inside the fresh window.
func recordTS(seed uint64, ds, key string) int64 {
	h := rng.StrHash(rng.StrHash(rng.Mix64(seed^0xda7a5e7), ds), key)
	return baseUnix - int64(rng.Unit(h)*float64(freshWindowSec))
}

// bogonASN reports whether an ASN is implausible in a public dataset: AS0,
// AS_TRANS, the 16-bit documentation/private block, or the 32-bit private
// range.
func bogonASN(asn registry.ASN) bool {
	return asn == 0 || asn == 23456 ||
		(asn >= 64496 && asn <= 65551) ||
		asn >= 4200000000
}
