// Package border implements the paper's basic inference strategy (§4.1): it
// walks annotated traceroutes hop by hop from the cloud outward, identifies
// the first hop owned by an organisation other than the cloud's (the
// Customer Border Interface, CBI), and takes the hop before it as the cloud
// Border Interface (ABI). The pair is a *candidate* interconnection segment:
// address sharing on the interconnect subnet (Fig. 2) means the true segment
// may be the immediately preceding one, which the verification stage
// (internal/verify) resolves.
//
// The package consumes only measurement data (probe.Trace) and public
// datasets (registry.Registry); it never sees ground truth.
package border

import (
	"math/bits"

	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
)

// Segment is one candidate interconnection segment.
type Segment struct {
	ABI, CBI netblock.IP
}

// ABIInfo aggregates the evidence collected about one candidate ABI.
type ABIInfo struct {
	Addr netblock.IP
	Ann  registry.Annotation
	// NextOrgs are the organisations of the hops observed immediately after
	// this interface; CloudNext records whether a cloud-organisation hop was
	// ever next. Both feed the hybrid-interface heuristic (§5.1).
	NextOrgs  map[string]struct{}
	CloudNext bool
	// CBIs are the customer border interfaces seen across this ABI.
	CBIs map[netblock.IP]struct{}
}

// CBIInfo aggregates the evidence collected about one candidate CBI.
type CBIInfo struct {
	Addr netblock.IP
	Ann  registry.Annotation
	ABIs map[netblock.IP]struct{}
	// Regions is a bitmask of probing regions that observed this CBI.
	Regions uint32
	// FoundInRound2 marks interfaces first discovered by expansion probing.
	FoundInRound2 bool
	// SampleDst is the destination of the first traceroute that revealed
	// this CBI (part of the §7.1 VPI-detection target pool).
	SampleDst netblock.IP
}

// SegInfo tracks one candidate segment and the hop preceding its ABI, which
// becomes the corrected ABI if verification decides the segment must shift.
type SegInfo struct {
	Seg Segment
	// PrevABI is the responsive hop before the ABI (zero when unknown).
	PrevABI netblock.IP
	Count   int
}

// Stats counts trace dispositions (§3's yield discussion and §4.1's
// exclusion rules).
type Stats struct {
	Traces         int
	Completed      int
	LeftCloud      int
	ExcludedLoop   int
	ExcludedGap    int // unresponsive hop before the border
	ExcludedDst    int // CBI was the traceroute destination
	ExcludedDup    int // duplicate pre-border hop
	ReenteredCloud int
	NoBorder       int // never left the cloud
	// SuspectHops counts border hops whose annotation was backed by a
	// conflict-resolved dataset record (the hygiene layer's suspect mark);
	// the CBIs they support are labelled low-confidence downstream.
	SuspectHops int
}

// Inference is the streaming state of border inference for one cloud.
type Inference struct {
	reg   *registry.Registry
	cloud string
	round int // 1 or 2 (expansion)

	// asnGranularity disables ORG-level grouping: only the cloud's primary
	// ASN counts as "inside". The paper's footnote 4 exists because Amazon
	// announces from several ASNs; this switch (used by the ablation bench)
	// shows what goes wrong without ORG grouping — borders detected inside
	// the cloud.
	asnGranularity bool
	primaryASN     registry.ASN

	// cloudASNs is reg.CloudASNs[cloud], hoisted at construction: isCloudHop
	// runs once per responsive hop, and the string-keyed outer lookup is
	// measurable at campaign scale.
	cloudASNs map[registry.ASN]bool
	// annCache memoises reg.Annotate per address, with the two hop
	// classifications Consume needs pre-computed. Campaigns revisit the
	// same first hops millions of times (the per-chunk dictionary hit rate
	// is ~97%), so the cache turns trie walk + classification into one
	// table probe per hop. The registry is immutable for the lifetime of an
	// Inference, which makes the memo exact; DisableOrgGrouping resets it
	// because the cloud flag depends on the grouping mode.
	annCache annTable

	// memo short-circuits record for runs of traces that resolve to the
	// same (ABI, CBI, prev) triple — within a chunk, consecutive targets
	// behind one peering usually do. On a hit, record skips the five map
	// lookups and touches only the per-trace fields (segment count, region
	// bit, reachable /24), which is the replay hot path's bulk.
	memo recordMemo

	ABIs     map[netblock.IP]*ABIInfo
	CBIs     map[netblock.IP]*CBIInfo
	Segments map[Segment]*SegInfo

	// ReachableSlash24 maps peer ASN -> set of destination /24s probed
	// through that peer's CBIs (Fig. 6's "reachable /24" feature).
	ReachableSlash24 map[registry.ASN]map[netblock.IP]struct{}

	Stats Stats
}

// New creates an inference sink for the named cloud ("amazon", ...).
func New(reg *registry.Registry, cloud string) *Inference {
	return &Inference{
		reg:              reg,
		cloud:            cloud,
		round:            1,
		cloudASNs:        reg.CloudASNs[cloud],
		ABIs:             make(map[netblock.IP]*ABIInfo),
		CBIs:             make(map[netblock.IP]*CBIInfo),
		Segments:         make(map[Segment]*SegInfo),
		ReachableSlash24: make(map[registry.ASN]map[netblock.IP]struct{}),
	}
}

// BeginRound2 switches bookkeeping to expansion-probing mode.
func (inf *Inference) BeginRound2() { inf.round = 2 }

// DisableOrgGrouping switches the border walk to single-ASN granularity
// (ablation; see the asnGranularity field).
func (inf *Inference) DisableOrgGrouping(primaryASN registry.ASN) {
	inf.asnGranularity = true
	inf.primaryASN = primaryASN
	// Cached cloud flags were computed under ORG grouping; drop them. The
	// record memo caches annotation-derived state too.
	inf.annCache = annTable{}
	inf.memo = recordMemo{}
}

// recordMemo caches the map-resident state record resolved for the last
// (ABI, CBI, prev) triple. Valid only while the underlying maps hold these
// exact entries — true for the life of an Inference, which never deletes.
type recordMemo struct {
	valid          bool
	abi, cbi, prev netblock.IP
	ci             *CBIInfo
	si             *SegInfo
	reach          map[netblock.IP]struct{} // nil when the CBI's ASN is 0
}

// isCloudHop reports whether a hop still belongs to the probing cloud: its
// organisation matches, or it is in private/shared space (ASN 0), which
// clouds use internally (§3). An address inside an IXP prefix is never a
// cloud hop on an outbound trace — it always belongs to some IXP member
// ([63], the basis of the IXP-client heuristic) — even when the exchange's
// published member assignment has a gap and the ASN is unknown.
func (inf *Inference) isCloudHop(ann registry.Annotation) bool {
	if inf.asnGranularity {
		if ann.IXP >= 0 {
			return ann.ASN == inf.primaryASN
		}
		return ann.ASN == 0 || ann.ASN == inf.primaryASN
	}
	if ann.IXP >= 0 {
		return ann.ASN != 0 && inf.cloudASNs[ann.ASN]
	}
	if ann.ASN == 0 {
		return true
	}
	return inf.cloudASNs[ann.ASN]
}

// Classification flags memoised alongside each annotation.
const (
	// flagCloud is isCloudHop(ann): the hop still belongs to the probing
	// cloud.
	flagCloud = 1 << iota
	// flagStrictCloud is the re-entry predicate (a known cloud ASN, no
	// private/IXP leniency).
	flagStrictCloud
)

// annTable is an open-addressed IP -> (annotation, flags) memo. Addresses
// are 4 bytes and the hot path tests only the flags, so the probe sequence
// touches a dense 8-byte-slot array instead of map buckets holding full
// Annotation values — at campaign scale (hundreds of thousands of distinct
// hops, millions of lookups) the working set stays several times smaller
// than a Go map's and the flag test needs no second indirection.
// netblock.Zero never appears as a key: only responsive hops are looked up.
//
// The home slot is the top log2(len(slots)) bits of the Fibonacci product
// ip*0x9e3779b9. A multiply carries bits upward only, so the product's low
// k bits are a function of the address's low k bits alone: masking them
// sends every address with the same host part (the .1 of each subnet, say)
// to one home slot and grows long collision runs. The high bits depend on
// the whole address, which keeps probe sequences near the ~2.5 slots that
// linear probing averages at the 75% load cap.
type annTable struct {
	slots []annSlot // len is a power of two
	shift uint8     // 32 - log2(len(slots)): home slot = product >> shift
	anns  []registry.Annotation
	n     int
}

type annSlot struct {
	ip     netblock.IP
	flags  uint8
	annIdx uint32 // into annTable.anns
}

// home is ip's first probe slot; find walks forward from it.
func (t *annTable) home(ip netblock.IP) uint32 {
	return (uint32(ip) * 0x9e3779b9) >> t.shift
}

func (t *annTable) find(ip netblock.IP) *annSlot {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(ip); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ip == ip || s.ip == netblock.Zero {
			return s
		}
	}
}

func (t *annTable) insert(ip netblock.IP, flags uint8, ann registry.Annotation) {
	if len(t.slots) == 0 || t.n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	s := t.find(ip)
	if s.ip == netblock.Zero {
		t.n++
		s.ip = ip
	}
	s.flags = flags
	s.annIdx = uint32(len(t.anns))
	t.anns = append(t.anns, ann)
}

func (t *annTable) grow() {
	old := t.slots
	size := 1 << 13
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]annSlot, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.ip != netblock.Zero {
			*t.find(s.ip) = s
		}
	}
}

// annotate is reg.Annotate through the per-inference memo.
func (inf *Inference) annotate(ip netblock.IP) registry.Annotation {
	return inf.annCache.anns[inf.lookup(ip).annIdx]
}

func (inf *Inference) lookup(ip netblock.IP) annSlot {
	if len(inf.annCache.slots) > 0 {
		if s := inf.annCache.find(ip); s.ip == ip {
			return *s
		}
	}
	ann := inf.reg.Annotate(ip)
	var flags uint8
	if inf.isCloudHop(ann) {
		flags |= flagCloud
	}
	if ann.ASN != 0 && inf.cloudASNs[ann.ASN] {
		flags |= flagStrictCloud
	}
	inf.annCache.insert(ip, flags, ann)
	return annSlot{ip: ip, flags: flags, annIdx: uint32(len(inf.annCache.anns) - 1)}
}

// Consume processes one traceroute, applying §4.1's exclusion rules and
// recording any candidate interconnection segment.
func (inf *Inference) Consume(tr probe.Trace) {
	inf.Stats.Traces++
	if tr.Status == probe.StatusCompleted {
		inf.Stats.Completed++
	}
	if tr.Status == probe.StatusLoop {
		inf.Stats.ExcludedLoop++
		return
	}

	// Find the customer border hop: the first responsive hop whose ORG is
	// neither unknown-private (AS0) nor the cloud's. abiIdx keeps the
	// annotation of the last responsive hop before it: whenever a segment
	// is formed below, that hop is the ABI, so it needs no second lookup.
	cbiIdx := -1
	var cbiAnn registry.Annotation
	var abiIdx uint32
	for i, h := range tr.Hops {
		if !h.Responsive() {
			continue
		}
		e := inf.lookup(h.Addr)
		if e.flags&flagCloud == 0 {
			cbiIdx = i
			cbiAnn = inf.annCache.anns[e.annIdx]
			break
		}
		abiIdx = e.annIdx
	}
	if cbiIdx < 0 {
		inf.Stats.NoBorder++
		return
	}
	inf.Stats.LeftCloud++

	// Exclusion: unresponsive or duplicate hops before the border. Paths
	// are short (hop-limited), so a linear dup scan beats allocating a set
	// per trace — this runs once per trace on the replay hot path.
	for i := 0; i < cbiIdx; i++ {
		if !tr.Hops[i].Responsive() {
			inf.Stats.ExcludedGap++
			return
		}
		for j := 0; j < i; j++ {
			if tr.Hops[j].Addr == tr.Hops[i].Addr {
				inf.Stats.ExcludedDup++
				return
			}
		}
	}
	if cbiIdx == 0 {
		// No ABI observable; cannot form a segment.
		inf.Stats.NoBorder++
		return
	}
	cbi := tr.Hops[cbiIdx].Addr
	// Exclusion: the CBI is the destination itself (likely a default
	// response by the target, RFC 1812 behaviour; §4.1).
	if cbi == tr.Dst && cbiIdx == len(tr.Hops)-1 {
		inf.Stats.ExcludedDst++
		return
	}

	// Sanity: the trace must not re-enter the cloud downstream.
	for i := cbiIdx + 1; i < len(tr.Hops); i++ {
		if !tr.Hops[i].Responsive() {
			continue
		}
		if inf.lookup(tr.Hops[i].Addr).flags&flagStrictCloud != 0 {
			inf.Stats.ReenteredCloud++
			return
		}
	}

	if cbiAnn.Suspect {
		inf.Stats.SuspectHops++
	}

	abi := tr.Hops[cbiIdx-1].Addr
	abiAnn := inf.annCache.anns[abiIdx]
	var prev netblock.IP
	if cbiIdx >= 2 {
		prev = tr.Hops[cbiIdx-2].Addr
	}
	inf.record(tr, abi, abiAnn, cbi, cbiAnn, prev)
}

func (inf *Inference) record(tr probe.Trace, abi netblock.IP, abiAnn registry.Annotation, cbi netblock.IP, cbiAnn registry.Annotation, prev netblock.IP) {
	// Fast path: same (ABI, CBI, prev) triple as the last trace. Every
	// set insert and backfill below is idempotent and already happened when
	// the memo was populated, so only the per-trace updates remain.
	if m := &inf.memo; m.valid && m.abi == abi && m.cbi == cbi && m.prev == prev {
		m.si.Count++
		if tr.Src.Region < 32 {
			m.ci.Regions |= 1 << uint(tr.Src.Region)
		}
		if m.reach != nil {
			m.reach[netblock.Slash24(tr.Dst).Addr] = struct{}{}
		}
		return
	}

	ai := inf.ABIs[abi]
	if ai == nil {
		ai = &ABIInfo{Addr: abi, Ann: abiAnn, NextOrgs: map[string]struct{}{}, CBIs: map[netblock.IP]struct{}{}}
		inf.ABIs[abi] = ai
	}
	ai.CBIs[cbi] = struct{}{}
	if cbiAnn.Org != "" {
		ai.NextOrgs[cbiAnn.Org] = struct{}{}
	}

	// The hop before the ABI has the ABI (cloud-annotated, here) as next
	// hop: hybrid evidence for that earlier interface if it is ever itself
	// inferred as an ABI.
	if prev != netblock.Zero {
		pi := inf.ABIs[prev]
		if pi == nil {
			// Record only if it is already a known ABI; otherwise keep a
			// lightweight pending entry (it may become one later).
			pi = &ABIInfo{Addr: prev, Ann: inf.annotate(prev), NextOrgs: map[string]struct{}{}, CBIs: map[netblock.IP]struct{}{}}
			inf.ABIs[prev] = pi
		}
		pi.CloudNext = true
	}

	ci := inf.CBIs[cbi]
	if ci == nil {
		ci = &CBIInfo{Addr: cbi, Ann: cbiAnn, ABIs: map[netblock.IP]struct{}{}, FoundInRound2: inf.round == 2, SampleDst: tr.Dst}
		inf.CBIs[cbi] = ci
	}
	ci.ABIs[abi] = struct{}{}
	if tr.Src.Region < 32 {
		ci.Regions |= 1 << uint(tr.Src.Region)
	}

	seg := Segment{ABI: abi, CBI: cbi}
	si := inf.Segments[seg]
	if si == nil {
		si = &SegInfo{Seg: seg, PrevABI: prev}
		inf.Segments[seg] = si
	}
	si.Count++
	if si.PrevABI == netblock.Zero {
		si.PrevABI = prev
	}

	// Reachability accounting for Fig. 6: the destination /24 was probed
	// through this peer.
	var reach map[netblock.IP]struct{}
	if cbiAnn.ASN != 0 {
		reach = inf.ReachableSlash24[cbiAnn.ASN]
		if reach == nil {
			reach = map[netblock.IP]struct{}{}
			inf.ReachableSlash24[cbiAnn.ASN] = reach
		}
		reach[netblock.Slash24(tr.Dst).Addr] = struct{}{}
	}

	inf.memo = recordMemo{valid: true, abi: abi, cbi: cbi, prev: prev, ci: ci, si: si, reach: reach}
}

// pendingOnly reports whether an ABI entry exists only as hybrid-evidence
// bookkeeping (it was seen before a cloud hop but never inferred as a
// border).
func (a *ABIInfo) pendingOnly() bool { return len(a.CBIs) == 0 }

// CandidateABIs returns the addresses actually inferred as ABIs (excluding
// pending hybrid-evidence entries).
func (inf *Inference) CandidateABIs() []netblock.IP {
	out := make([]netblock.IP, 0, len(inf.ABIs))
	for addr, ai := range inf.ABIs {
		if !ai.pendingOnly() {
			out = append(out, addr)
		}
	}
	return out
}

// CandidateCBIs returns all inferred CBI addresses.
func (inf *Inference) CandidateCBIs() []netblock.IP {
	out := make([]netblock.IP, 0, len(inf.CBIs))
	for addr := range inf.CBIs {
		out = append(out, addr)
	}
	return out
}

// MetaBreakdown summarises a set of interfaces by annotation source: the
// BGP%/WHOIS%/IXP% columns of Table 1.
type MetaBreakdown struct {
	Total, BGP, Whois, IXP int
}

// BreakdownABIs computes Table 1's ABI row.
func (inf *Inference) BreakdownABIs() MetaBreakdown {
	var b MetaBreakdown
	for _, ai := range inf.ABIs {
		if ai.pendingOnly() {
			continue
		}
		tally(&b, ai.Ann)
	}
	return b
}

// BreakdownCBIs computes Table 1's CBI row.
func (inf *Inference) BreakdownCBIs() MetaBreakdown {
	var b MetaBreakdown
	for _, ci := range inf.CBIs {
		tally(&b, ci.Ann)
	}
	return b
}

func tally(b *MetaBreakdown, ann registry.Annotation) {
	b.Total++
	switch {
	case ann.IXP >= 0:
		b.IXP++
	case ann.Source == registry.SourceBGP:
		b.BGP++
	case ann.Source == registry.SourceWhois:
		b.Whois++
	}
}

// LowConfidenceCBIs returns the CBI addresses whose own annotation is
// suspect (conflict-resolved origin) or whose owner has no organisation
// mapping — the interfaces inference should label rather than assert.
func (inf *Inference) LowConfidenceCBIs() []netblock.IP {
	out := []netblock.IP{}
	for addr, ci := range inf.CBIs {
		if ci.Ann.Suspect || (ci.Ann.ASN != 0 && ci.Ann.Org == "") {
			out = append(out, addr)
		}
	}
	return out
}

// PeerASNs returns the distinct peer ASNs across all CBIs.
func (inf *Inference) PeerASNs() map[registry.ASN]struct{} {
	out := map[registry.ASN]struct{}{}
	for _, ci := range inf.CBIs {
		if ci.Ann.ASN != 0 {
			out[ci.Ann.ASN] = struct{}{}
		}
	}
	return out
}
