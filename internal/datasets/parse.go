package datasets

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudmap/internal/geo"
	"cloudmap/internal/netblock"
	"cloudmap/internal/registry"
)

// loader carries the parse state: the registry under construction, the
// accepted-record view, and the quarantine.
type loader struct {
	b    *registry.Builder
	view *View
	// asnKnown is the as2org-backed ASN universe; member/tenant references
	// outside it are dangling.
	asnKnown map[registry.ASN]bool
}

// Load parses a serialized corpus through the validating parsers and
// rebuilds a registry from the surviving records. It never fails: malformed
// or implausible records land in the quarantine with a typed reason, and
// the coverage report says what survived. world supplies the geographic
// frame the registry's consumers expect (it is not a dataset).
func Load(c *Corpus, world *geo.World) *View {
	l := &loader{
		b: registry.NewBuilder(world),
		view: &View{
			Report: &HygieneReport{Datasets: map[string]*DatasetSummary{}},
		},
		asnKnown: map[registry.ASN]bool{},
	}
	for _, ds := range Datasets {
		l.view.Report.summary(ds)
	}
	// as2org first: it defines the ASN universe the membership datasets are
	// cross-checked against.
	l.parseAs2org(c.file(DSAs2org))
	l.parseRIB(c.file(DSRib))
	l.parseWhois(c.file(DSWhois))
	l.parseIXPs(c.file(DSIXPs))
	l.parseFacilities(c.file(DSFacilities))
	l.parseASRel(c.file(DSASRel))
	l.parseCones(c.file(DSCones))
	l.parseRDNS(c.file(DSRDNS))
	l.parseClouds(c.file(DSClouds))

	rep := l.view.Report
	for _, ds := range Datasets {
		s := rep.Datasets[ds]
		rep.TotalKept += s.Kept
		rep.TotalQuarantined += s.Quarantined
		rep.TotalConflicts += s.ConflictResolved
	}
	for _, ds := range DirtyableDatasets {
		if rep.Datasets[ds].Kept == 0 {
			rep.EmptyDatasets = append(rep.EmptyDatasets, ds)
		}
	}
	l.view.Registry = l.b.Build()
	return l.view
}

// excerpt caps a quarantined record's text for the report.
func excerpt(s string) string {
	if len(s) > 80 {
		return s[:80]
	}
	return s
}

// quarantine records one rejection.
func (l *loader) quarantine(ds string, line int, reason Reason, record string) {
	l.view.Quarantine = append(l.view.Quarantine, Quarantined{
		Prov:   Provenance{Dataset: ds, Line: line},
		Reason: reason,
		Record: excerpt(record),
	})
	s := l.view.Report.summary(ds)
	s.Quarantined++
	if s.Reasons == nil {
		s.Reasons = map[string]int64{}
	}
	s.Reasons[string(reason)]++
}

// keep counts one accepted record.
func (l *loader) keep(ds string) { l.view.Report.summary(ds).Kept++ }

// stale reports whether a record timestamp predates the cutoff.
func stale(ts int64) bool { return ts < baseUnix-staleCutoffSec }

// lines splits a dataset file for line-oriented parsing.
func lines(content []byte) []string {
	if len(content) == 0 {
		return nil
	}
	return strings.Split(strings.TrimRight(string(content), "\n"), "\n")
}

// parseASN parses a decimal ASN.
func parseASN(s string) (registry.ASN, bool) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, false
	}
	return registry.ASN(v), true
}

// originVote is one origin claim for a prefix (a RIB line or WHOIS block).
type originVote struct {
	origin registry.ASN
	line   int
	ts     int64
	text   string
}

// voteBox accumulates a prefix's origin claims.
type voteBox struct {
	prefix netblock.Prefix
	votes  []originVote
}

// resolveOrigins runs majority vote over each prefix's claims: the origin
// with the most votes wins, ties break to the lowest ASN (delegations are
// more often stale-but-right than hijacked), losing claims are quarantined
// as conflicting, and survivors backed by any disagreement are marked
// suspect. Iteration follows first-appearance order, so the outcome is
// independent of map order.
func (l *loader) resolveOrigins(ds string, order []netblock.Prefix, boxes map[netblock.Prefix]*voteBox,
	accept func(p netblock.Prefix, win originVote, suspect bool)) {
	for _, p := range order {
		box := boxes[p]
		counts := map[registry.ASN]int{}
		for _, v := range box.votes {
			counts[v.origin]++
		}
		var win registry.ASN
		best := -1
		for origin, n := range counts {
			if n > best || (n == best && origin < win) {
				win, best = origin, n
			}
		}
		suspect := len(counts) > 1
		var winVote originVote
		for _, v := range box.votes {
			if v.origin == win {
				winVote = v
				break
			}
		}
		for _, v := range box.votes {
			if v.origin != win {
				l.quarantine(ds, v.line, ReasonConflict, v.text)
			}
		}
		if suspect {
			l.view.Report.summary(ds).ConflictResolved++
		}
		l.keep(ds)
		accept(p, winVote, suspect)
	}
}

// parseRIB validates bgpdump -m TABLE_DUMP2 lines and majority-votes each
// prefix's origin across collector peers.
func (l *loader) parseRIB(content []byte) {
	order := []netblock.Prefix{}
	boxes := map[netblock.Prefix]*voteBox{}
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" {
			continue
		}
		f := strings.Split(line, "|")
		if len(f) != 8 || f[0] != "TABLE_DUMP2" || f[2] != "B" {
			l.quarantine(DSRib, ln, ReasonMalformed, line)
			continue
		}
		ts, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			l.quarantine(DSRib, ln, ReasonMalformed, line)
			continue
		}
		if stale(ts) {
			l.quarantine(DSRib, ln, ReasonStale, line)
			continue
		}
		p, err := netblock.ParsePrefix(f[5])
		if err != nil {
			l.quarantine(DSRib, ln, ReasonBadPrefix, line)
			continue
		}
		path := strings.Fields(f[6])
		if len(path) == 0 {
			l.quarantine(DSRib, ln, ReasonMalformed, line)
			continue
		}
		origin, ok := parseASN(path[len(path)-1])
		if !ok {
			l.quarantine(DSRib, ln, ReasonMalformed, line)
			continue
		}
		if bogonASN(origin) {
			l.quarantine(DSRib, ln, ReasonBogonASN, line)
			continue
		}
		box := boxes[p]
		if box == nil {
			box = &voteBox{prefix: p}
			boxes[p] = box
			order = append(order, p)
		}
		box.votes = append(box.votes, originVote{origin: origin, line: ln, ts: ts, text: line})
	}
	l.resolveOrigins(DSRib, order, boxes, func(p netblock.Prefix, win originVote, suspect bool) {
		l.b.AddRIB(p, win.origin, suspect)
		l.view.RIB = append(l.view.RIB, RIBRecord{
			Prov:   Provenance{Dataset: DSRib, Line: win.line},
			Prefix: p, Origin: win.origin, Updated: win.ts, Suspect: suspect,
		})
	})
}

// rangeToPrefix converts an "A - B" inetnum range back to a CIDR block:
// the range must be aligned and a power-of-two size.
func rangeToPrefix(first, last netblock.IP) (netblock.Prefix, bool) {
	if last < first {
		return netblock.Prefix{}, false
	}
	size := uint64(last-first) + 1
	if size&(size-1) != 0 {
		return netblock.Prefix{}, false
	}
	bits := uint8(32)
	for s := size; s > 1; s >>= 1 {
		bits--
	}
	p := netblock.Prefix{Addr: first, Bits: bits}
	if first&^netblock.Mask(bits) != 0 {
		return netblock.Prefix{}, false
	}
	return p, true
}

// parseWhois validates RPSL delegation blocks (blank-line separated) and
// resolves duplicate delegations of the same range.
func (l *loader) parseWhois(content []byte) {
	order := []netblock.Prefix{}
	boxes := map[netblock.Prefix]*voteBox{}
	blocks := strings.Split(string(content), "\n\n")
	bn := 0
	for _, block := range blocks {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		bn++
		var inetnum, origin, changed string
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "inetnum:"):
				inetnum = strings.TrimSpace(strings.TrimPrefix(line, "inetnum:"))
			case strings.HasPrefix(line, "origin:"):
				origin = strings.TrimSpace(strings.TrimPrefix(line, "origin:"))
			case strings.HasPrefix(line, "changed:"):
				changed = strings.TrimSpace(strings.TrimPrefix(line, "changed:"))
			}
		}
		if inetnum == "" || origin == "" || changed == "" {
			l.quarantine(DSWhois, bn, ReasonMalformed, block)
			continue
		}
		ends := strings.Split(inetnum, " - ")
		if len(ends) != 2 {
			l.quarantine(DSWhois, bn, ReasonBadPrefix, block)
			continue
		}
		first, err1 := netblock.ParseIP(ends[0])
		last, err2 := netblock.ParseIP(ends[1])
		if err1 != nil || err2 != nil {
			l.quarantine(DSWhois, bn, ReasonBadPrefix, block)
			continue
		}
		p, ok := rangeToPrefix(first, last)
		if !ok {
			l.quarantine(DSWhois, bn, ReasonBadPrefix, block)
			continue
		}
		if !strings.HasPrefix(origin, "AS") {
			l.quarantine(DSWhois, bn, ReasonMalformed, block)
			continue
		}
		asn, okASN := parseASN(origin[2:])
		if !okASN {
			l.quarantine(DSWhois, bn, ReasonMalformed, block)
			continue
		}
		if bogonASN(asn) {
			l.quarantine(DSWhois, bn, ReasonBogonASN, block)
			continue
		}
		when, err := time.Parse("20060102", changed)
		if err != nil {
			l.quarantine(DSWhois, bn, ReasonMalformed, block)
			continue
		}
		ts := when.Unix()
		if stale(ts) {
			l.quarantine(DSWhois, bn, ReasonStale, block)
			continue
		}
		box := boxes[p]
		if box == nil {
			box = &voteBox{prefix: p}
			boxes[p] = box
			order = append(order, p)
		}
		box.votes = append(box.votes, originVote{origin: asn, line: bn, ts: ts, text: block})
	}
	l.resolveOrigins(DSWhois, order, boxes, func(p netblock.Prefix, win originVote, suspect bool) {
		l.b.AddWhois(p, win.origin, suspect)
		l.view.Whois = append(l.view.Whois, WhoisRecord{
			Prov:   Provenance{Dataset: DSWhois, Line: win.line},
			Prefix: p, Origin: win.origin, Updated: win.ts, Suspect: suspect,
		})
	})
}

// filterMembers strips bogon and dangling ASNs from a membership list,
// quarantining each removal but keeping the record.
func (l *loader) filterMembers(ds string, line int, owner, role string, raw []uint32) []registry.ASN {
	out := make([]registry.ASN, 0, len(raw))
	for _, m := range raw {
		asn := registry.ASN(m)
		switch {
		case bogonASN(asn):
			l.quarantine(ds, line, ReasonBogonASN, owner+" "+role+" AS"+strconv.FormatUint(uint64(m), 10))
		case !l.asnKnown[asn]:
			l.quarantine(ds, line, ReasonDangling, owner+" "+role+" AS"+strconv.FormatUint(uint64(m), 10))
		default:
			out = append(out, asn)
		}
	}
	return out
}

// parseIXPs validates the JSONL exchange list.
func (l *loader) parseIXPs(content []byte) {
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" {
			continue
		}
		var w ixpWire
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil || w.Name == "" {
			l.quarantine(DSIXPs, ln, ReasonMalformed, line)
			continue
		}
		when, err := time.Parse(time.RFC3339, w.Updated)
		if err != nil {
			l.quarantine(DSIXPs, ln, ReasonMalformed, line)
			continue
		}
		ts := when.Unix()
		if stale(ts) {
			l.quarantine(DSIXPs, ln, ReasonStale, line)
			continue
		}
		info := registry.IXPInfo{Name: w.Name, Cities: w.Cities}
		bad := false
		for _, ps := range w.Prefixes {
			p, perr := netblock.ParsePrefix(ps)
			if perr != nil {
				bad = true
				break
			}
			info.Prefixes = append(info.Prefixes, p)
		}
		if bad || len(info.Prefixes) == 0 {
			l.quarantine(DSIXPs, ln, ReasonBadPrefix, line)
			continue
		}
		info.Members = l.filterMembers(DSIXPs, ln, w.Name, "member", w.Members)
		assignments := map[netblock.IP]registry.ASN{}
		for ipStr, asn := range w.Assignments {
			ip, iperr := netblock.ParseIP(ipStr)
			if iperr != nil {
				l.quarantine(DSIXPs, ln, ReasonBadPrefix, w.Name+" assignment "+excerpt(ipStr))
				continue
			}
			assignments[ip] = registry.ASN(asn)
		}
		l.b.AddIXP(info, assignments)
		l.view.IXPs = append(l.view.IXPs, IXPRecord{
			Prov:        Provenance{Dataset: DSIXPs, Line: ln},
			Info:        info,
			Assignments: assignments,
			Updated:     ts,
		})
		l.keep(DSIXPs)
	}
}

// parseFacilities validates the JSONL facility directory.
func (l *loader) parseFacilities(content []byte) {
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" {
			continue
		}
		var w facilityWire
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil || w.Name == "" || w.City == "" {
			l.quarantine(DSFacilities, ln, ReasonMalformed, line)
			continue
		}
		when, err := time.Parse(time.RFC3339, w.Updated)
		if err != nil {
			l.quarantine(DSFacilities, ln, ReasonMalformed, line)
			continue
		}
		ts := when.Unix()
		if stale(ts) {
			l.quarantine(DSFacilities, ln, ReasonStale, line)
			continue
		}
		info := registry.FacilityInfo{
			Name:        w.Name,
			City:        w.City,
			Country:     w.Country,
			Tenants:     l.filterMembers(DSFacilities, ln, w.Name, "tenant", w.Tenants),
			CloudNative: w.CloudNative,
		}
		l.b.AddFacility(info)
		l.view.Facilities = append(l.view.Facilities, FacilityRecord{
			Prov:    Provenance{Dataset: DSFacilities, Line: ln},
			Info:    info,
			Updated: ts,
		})
		l.keep(DSFacilities)
	}
}

// parseAs2org validates the CAIDA two-section as2org file: organisation
// rows, then aut rows referencing them.
func (l *loader) parseAs2org(content []byte) {
	const (
		modeNone = iota
		modeOrg
		modeAut
	)
	mode := modeNone
	orgName := map[string]string{}
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			switch {
			case strings.HasPrefix(line, "# format:org_id|"):
				mode = modeOrg
			case strings.HasPrefix(line, "# format:aut|"):
				mode = modeAut
			}
			continue
		}
		f := strings.Split(line, "|")
		switch mode {
		case modeOrg:
			if len(f) != 5 || f[0] == "" || f[2] == "" {
				l.quarantine(DSAs2org, ln, ReasonMalformed, line)
				continue
			}
			orgName[f[0]] = f[2]
			l.view.Orgs = append(l.view.Orgs, OrgRecord{
				Prov: Provenance{Dataset: DSAs2org, Line: ln}, ID: f[0], Name: f[2],
			})
			l.keep(DSAs2org)
		case modeAut:
			if len(f) != 6 {
				l.quarantine(DSAs2org, ln, ReasonMalformed, line)
				continue
			}
			asn, ok := parseASN(f[0])
			if !ok {
				l.quarantine(DSAs2org, ln, ReasonMalformed, line)
				continue
			}
			if bogonASN(asn) {
				l.quarantine(DSAs2org, ln, ReasonBogonASN, line)
				continue
			}
			name, known := orgName[f[3]]
			if !known {
				// The org row this aut references was lost: the mapping
				// dangles and the ASN stays org-less.
				l.quarantine(DSAs2org, ln, ReasonDangling, line)
				continue
			}
			l.b.SetOrg(asn, name)
			l.asnKnown[asn] = true
			l.view.ASes = append(l.view.ASes, ASRecord{
				Prov: Provenance{Dataset: DSAs2org, Line: ln}, ASN: asn, OrgID: f[3],
			})
			l.keep(DSAs2org)
		default:
			l.quarantine(DSAs2org, ln, ReasonMalformed, line)
		}
	}
}

// parseASRel validates the CAIDA as-rel file.
func (l *loader) parseASRel(content []byte) {
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "|")
		if len(f) != 3 {
			l.quarantine(DSASRel, ln, ReasonMalformed, line)
			continue
		}
		a, okA := parseASN(f[0])
		bASN, okB := parseASN(f[1])
		if !okA || !okB {
			l.quarantine(DSASRel, ln, ReasonMalformed, line)
			continue
		}
		if bogonASN(a) || bogonASN(bASN) {
			l.quarantine(DSASRel, ln, ReasonBogonASN, line)
			continue
		}
		rel, err := strconv.Atoi(f[2])
		if err != nil {
			l.quarantine(DSASRel, ln, ReasonMalformed, line)
			continue
		}
		if rel != int(registry.RelP2C) && rel != int(registry.RelP2P) {
			l.quarantine(DSASRel, ln, ReasonBadRelType, line)
			continue
		}
		l.b.AddLink(a, bASN, registry.Rel(rel))
		l.view.Links = append(l.view.Links, LinkRecord{
			Prov: Provenance{Dataset: DSASRel, Line: ln}, A: a, B: bASN, Rel: registry.Rel(rel),
		})
		l.keep(DSASRel)
	}
}

// parseCones validates the customer-cone size file.
func (l *loader) parseCones(content []byte) {
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			l.quarantine(DSCones, ln, ReasonMalformed, line)
			continue
		}
		asn, ok := parseASN(f[0])
		if !ok {
			l.quarantine(DSCones, ln, ReasonMalformed, line)
			continue
		}
		if bogonASN(asn) {
			l.quarantine(DSCones, ln, ReasonBogonASN, line)
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 0 {
			l.quarantine(DSCones, ln, ReasonMalformed, line)
			continue
		}
		l.b.SetCone(asn, n)
		l.view.Cones = append(l.view.Cones, ConeRecord{
			Prov: Provenance{Dataset: DSCones, Line: ln}, ASN: asn, N: n,
		})
		l.keep(DSCones)
	}
}

// parseRDNS validates the reverse-DNS zone.
func (l *loader) parseRDNS(content []byte) {
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 2 || f[1] == "" {
			l.quarantine(DSRDNS, ln, ReasonMalformed, line)
			continue
		}
		ip, err := netblock.ParseIP(f[0])
		if err != nil {
			l.quarantine(DSRDNS, ln, ReasonBadPrefix, line)
			continue
		}
		l.b.AddDNS(ip, f[1])
		l.view.DNS = append(l.view.DNS, DNSRecord{
			Prov: Provenance{Dataset: DSRDNS, Line: ln}, IP: ip, Name: f[1],
		})
		l.keep(DSRDNS)
	}
}

// parseClouds loads the authoritative cloud dataset.
func (l *loader) parseClouds(content []byte) {
	for i, line := range lines(content) {
		ln := i + 1
		if line == "" {
			continue
		}
		var w cloudWire
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil || w.Name == "" {
			l.quarantine(DSClouds, ln, ReasonMalformed, line)
			continue
		}
		asns := make([]registry.ASN, 0, len(w.ASNs))
		for _, a := range w.ASNs {
			asns = append(asns, registry.ASN(a))
		}
		sort.Slice(asns, func(a, b int) bool { return asns[a] < asns[b] })
		l.b.SetCloud(w.Name, asns)
		if w.Name == "amazon" {
			l.b.SetAmazonListedCities(w.DXCities)
		}
		l.view.Clouds = append(l.view.Clouds, CloudRecord{
			Prov: Provenance{Dataset: DSClouds, Line: ln},
			Name: w.Name, ASNs: asns, DXCities: w.DXCities,
		})
		l.keep(DSClouds)
	}
}

// LoadDir reads a corpus back from a directory written by Corpus.WriteDir.
// Missing files are tolerated as empty datasets.
func LoadDir(dir string) (*Corpus, error) {
	c := &Corpus{Files: map[string][]byte{}}
	for _, ds := range Datasets {
		name := fileOf[ds]
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("datasets: %w", err)
		}
		c.Files[name] = raw
	}
	return c, nil
}
