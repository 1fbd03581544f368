package datasets

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cloudmap/internal/geo"
	"cloudmap/internal/netblock"
	"cloudmap/internal/registry"
	"cloudmap/internal/topo"
)

var (
	setupOnce sync.Once
	testReg   *registry.Registry
	testWorld *geo.World
	testSeed  uint64
)

// setup builds one small simulated world shared by every test.
func setup(t *testing.T) {
	t.Helper()
	setupOnce.Do(func() {
		cfg := topo.SmallConfig()
		tp, err := topo.Generate(cfg)
		if err != nil {
			panic(err)
		}
		testSeed = cfg.Seed
		testReg = registry.Build(tp, cfg.Seed)
		testWorld = testReg.World
	})
}

// corpus builds a Corpus from dataset-name -> content pairs.
func corpus(files map[string]string) *Corpus {
	c := &Corpus{Files: map[string][]byte{}}
	for ds, content := range files {
		c.Files[fileOf[ds]] = []byte(content)
	}
	return c
}

// as2orgFixture backs the membership datasets in hand-written corpora: it
// defines ASNs 100, 200, and 300 so member references to them are not
// dangling.
const as2orgFixture = `# format:org_id|changed|org_name|country|source
O1|20190204|org-a.example|ZZ|SIM
O2|20190204|org-b.example|ZZ|SIM
# format:aut|changed|aut_name|org_id|opaque_id|source
100|20190204|AS100|O1||SIM
200|20190204|AS200|O2||SIM
300|20190204|AS300|O1||SIM
`

// reasonsOf collects a view's quarantine reasons for one dataset.
func reasonsOf(v *View, ds string) map[Reason]int {
	out := map[Reason]int{}
	for _, q := range v.Quarantine {
		if q.Prov.Dataset == ds {
			out[q.Reason]++
		}
	}
	return out
}

// TestCleanRoundTrip is the core hygiene property: with a nil plan the
// serialize -> parse -> serialize loop is byte-identical and nothing is
// quarantined.
func TestCleanRoundTrip(t *testing.T) {
	setup(t)
	c1 := Serialize(testReg, testSeed, nil)
	v := Load(c1, testWorld)
	if v.Report.TotalQuarantined != 0 {
		t.Fatalf("clean corpus quarantined %d records: %+v",
			v.Report.TotalQuarantined, v.Quarantine[:min(5, len(v.Quarantine))])
	}
	if v.Report.TotalConflicts != 0 {
		t.Fatalf("clean corpus resolved %d conflicts", v.Report.TotalConflicts)
	}
	if len(v.Report.EmptyDatasets) != 0 {
		t.Fatalf("clean corpus has empty datasets %v", v.Report.EmptyDatasets)
	}
	if v.Report.TotalKept == 0 {
		t.Fatal("clean corpus kept nothing")
	}
	c2 := Serialize(v.Registry, testSeed, nil)
	for name, want := range c1.Files {
		got, ok := c2.Files[name]
		if !ok {
			t.Fatalf("re-serialization lost %s", name)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s not byte-identical after round trip (len %d vs %d)", name, len(want), len(got))
		}
	}
}

// TestSerializeDeterministic: the same (registry, seed, plan) produces the
// same bytes on every call — corruption draws hash the record, never
// iteration order or a clock.
func TestSerializeDeterministic(t *testing.T) {
	setup(t)
	plan, err := LoadDirtyPlan("../../testdata/dirtyplans/moderate.json")
	if err != nil {
		t.Fatal(err)
	}
	c1 := Serialize(testReg, testSeed, plan)
	c2 := Serialize(testReg, testSeed, plan)
	for name := range c1.Files {
		if !bytes.Equal(c1.Files[name], c2.Files[name]) {
			t.Errorf("%s differs between identical serializations", name)
		}
	}
	v1, v2 := Load(c1, testWorld), Load(c2, testWorld)
	if !reflect.DeepEqual(v1.Report, v2.Report) {
		t.Error("hygiene reports differ between identical loads")
	}
	if !reflect.DeepEqual(v1.Quarantine, v2.Quarantine) {
		t.Error("quarantines differ between identical loads")
	}
	if v1.Report.TotalQuarantined == 0 {
		t.Error("moderate plan quarantined nothing")
	}
}

// TestDirtySeedsDiverge: a different plan seed corrupts different records.
func TestDirtySeedsDiverge(t *testing.T) {
	setup(t)
	mk := func(seed uint64) *DirtyPlan {
		return &DirtyPlan{Seed: seed, Datasets: map[string]Dirt{
			DSRDNS: {DropFrac: 0.2},
		}}
	}
	a := Serialize(testReg, testSeed, mk(1))
	b := Serialize(testReg, testSeed, mk(2))
	if bytes.Equal(a.file(DSRDNS), b.file(DSRDNS)) {
		t.Error("different plan seeds dropped identical rdns rows")
	}
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"out-of-range-high", `{"seed":1,"datasets":{"rib":{"drop_frac":1.5}}}`, "rib.drop_frac = 1.5 out of [0,1]"},
		{"out-of-range-negative", `{"seed":1,"datasets":{"whois":{"stale_frac":-0.1}}}`, "whois.stale_frac = -0.1 out of [0,1]"},
		{"unknown-dataset", `{"seed":1,"datasets":{"bogus":{"drop_frac":0.1}}}`, `unknown or undirtiable dataset "bogus"`},
		{"undirtiable-clouds", `{"seed":1,"datasets":{"clouds":{"drop_frac":0.1}}}`, `unknown or undirtiable dataset "clouds"`},
		{"unknown-field", `{"seed":1,"datasets":{"rib":{"drop_fraction":0.1}}}`, "unknown field"},
		{"garbage", `{]`, "parse plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDirtyPlan([]byte(tc.json))
			if err == nil {
				t.Fatalf("plan %s accepted", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := ParseDirtyPlan([]byte(`{"seed":3,"datasets":{"rib":{"drop_frac":0.5,"conflict_frac":1}}}`)); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestModeratePlanFileParses(t *testing.T) {
	plan, err := LoadDirtyPlan("../../testdata/dirtyplans/moderate.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Datasets) != len(DirtyableDatasets) {
		t.Errorf("moderate plan covers %d datasets, want all %d dirtiable", len(plan.Datasets), len(DirtyableDatasets))
	}
}

func TestRIBQuarantineReasons(t *testing.T) {
	setup(t)
	rib := strings.Join([]string{
		"TABLE_DUMP2|1549238400|B|198.32.160.1|6447|8.8.0.0/16|6447 100|IGP",   // good
		"TABLE_DUMP2|1549238400|B|195.66.225.1|12654|8.8.0.0/16|12654 100|IGP", // good (2nd peer)
		"TABLE_DUMP2|1549238400|B|198.32.160.1|6447|not-a-prefix|6447 100|IGP", // bad prefix
		"TABLE_DUMP2|1549238400|B|198.32.160.1|6447|9.9.0.0/16|6447 23456|IGP", // bogon origin
		"TABLE_DUMP2|1|B|198.32.160.1|6447|10.9.0.0/16|6447 100|IGP",           // stale (1970)
		"TABLE_DUMP2|1549238400|B|198.32.1",                                    // truncated
	}, "\n") + "\n"
	v := Load(corpus(map[string]string{DSAs2org: as2orgFixture, DSRib: rib}), testWorld)
	got := reasonsOf(v, DSRib)
	want := map[Reason]int{ReasonBadPrefix: 1, ReasonBogonASN: 1, ReasonStale: 1, ReasonMalformed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rib reasons = %v, want %v", got, want)
	}
	if n := v.Report.Datasets[DSRib].Kept; n != 1 {
		t.Fatalf("rib kept %d records, want 1", n)
	}
	// Provenance points at the offending line.
	for _, q := range v.Quarantine {
		if q.Prov.Dataset == DSRib && q.Reason == ReasonBadPrefix && q.Prov.Line != 3 {
			t.Errorf("bad-prefix provenance line = %d, want 3", q.Prov.Line)
		}
	}
}

func TestRIBConflictMajorityVote(t *testing.T) {
	setup(t)
	rib := strings.Join([]string{
		"TABLE_DUMP2|1549238400|B|198.32.160.1|6447|8.8.0.0/16|6447 100|IGP",
		"TABLE_DUMP2|1549238400|B|195.66.225.1|12654|8.8.0.0/16|12654 100|IGP",
		"TABLE_DUMP2|1549238400|B|203.0.113.1|3356|8.8.0.0/16|3356 101|IGP", // minority liar
	}, "\n") + "\n"
	v := Load(corpus(map[string]string{DSAs2org: as2orgFixture, DSRib: rib}), testWorld)
	if len(v.RIB) != 1 {
		t.Fatalf("kept %d rib records, want 1", len(v.RIB))
	}
	rec := v.RIB[0]
	if rec.Origin != 100 || !rec.Suspect {
		t.Fatalf("vote winner = AS%d suspect=%v, want AS100 suspect=true", rec.Origin, rec.Suspect)
	}
	if got := reasonsOf(v, DSRib)[ReasonConflict]; got != 1 {
		t.Fatalf("conflict quarantines = %d, want 1", got)
	}
	if v.Report.Datasets[DSRib].ConflictResolved != 1 {
		t.Fatalf("conflict-resolved = %d, want 1", v.Report.Datasets[DSRib].ConflictResolved)
	}
	// The suspect mark survives into the rebuilt registry's annotations.
	ip, _ := netblock.ParseIP("8.8.1.1")
	if ann := v.Registry.Annotate(ip); !ann.Suspect || ann.ASN != 100 {
		t.Fatalf("annotation = %+v, want suspect AS100", ann)
	}
}

func TestWhoisQuarantineAndTieBreak(t *testing.T) {
	setup(t)
	whois := strings.Join([]string{
		// Tie on 7.7.0.0/16: one vote each, lowest ASN (the genuine record,
		// conflicts rewrite origin upward) wins.
		"inetnum: 7.7.0.0 - 7.7.255.255\nnetname: NET-7.7.0.0-16\norigin: AS200\nchanged: 20190104\nsource: SIMWHOIS",
		"inetnum: 7.7.0.0 - 7.7.255.255\nnetname: NET-7.7.0.0-16\norigin: AS201\nchanged: 20190104\nsource: SIMWHOIS",
		// Misaligned range: 255 addresses is not a power-of-two block.
		"inetnum: 6.6.0.0 - 6.6.0.254\nnetname: NET-BAD\norigin: AS100\nchanged: 20190104\nsource: SIMWHOIS",
		// Stale delegation.
		"inetnum: 5.5.0.0 - 5.5.255.255\nnetname: NET-OLD\norigin: AS100\nchanged: 20150101\nsource: SIMWHOIS",
		// Truncated block: no origin/changed fields survive.
		"inetnum: 4.4.0.0 - 4.4",
	}, "\n\n") + "\n"
	v := Load(corpus(map[string]string{DSAs2org: as2orgFixture, DSWhois: whois}), testWorld)
	got := reasonsOf(v, DSWhois)
	want := map[Reason]int{ReasonConflict: 1, ReasonBadPrefix: 1, ReasonStale: 1, ReasonMalformed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("whois reasons = %v, want %v", got, want)
	}
	if len(v.Whois) != 1 {
		t.Fatalf("kept %d whois records, want 1", len(v.Whois))
	}
	if rec := v.Whois[0]; rec.Origin != 200 || !rec.Suspect {
		t.Fatalf("tie break kept AS%d suspect=%v, want AS200 suspect=true", rec.Origin, rec.Suspect)
	}
}

func TestIXPQuarantineReasons(t *testing.T) {
	setup(t)
	ixps := strings.Join([]string{
		`{"name":"SIM-IX 1","cities":["c1"],"prefixes":["80.81.192.0/24"],"members":[100,200],"updated":"2019-01-04T00:00:00Z"}`,
		`{"name":"SIM-IX 2","prefixes":["80.81.193.0/24"],"members":[100,23456,999],"updated":"2019-01-04T00:00:00Z"}`, // bogon + dangling member
		`{"name":"SIM-IX 3","prefixes":["nope/24"],"members":[100],"updated":"2019-01-04T00:00:00Z"}`,                  // bad prefix
		`{"name":"SIM-IX 4","prefixes":["80.81.194.0/24"],"members":[100],"updated":"2015-01-01T00:00:00Z"}`,           // stale
		`{"name":"SIM-IX 5","prefixes":["80.81.19`, // truncated JSON
	}, "\n") + "\n"
	v := Load(corpus(map[string]string{DSAs2org: as2orgFixture, DSIXPs: ixps}), testWorld)
	got := reasonsOf(v, DSIXPs)
	want := map[Reason]int{ReasonBogonASN: 1, ReasonDangling: 1, ReasonBadPrefix: 1, ReasonStale: 1, ReasonMalformed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ixp reasons = %v, want %v", got, want)
	}
	// Member stripping keeps the record: SIM-IX 2 survives without the bad
	// members.
	if n := v.Report.Datasets[DSIXPs].Kept; n != 2 {
		t.Fatalf("ixps kept %d, want 2", n)
	}
	for _, rec := range v.IXPs {
		if rec.Info.Name == "SIM-IX 2" && len(rec.Info.Members) != 1 {
			t.Fatalf("SIM-IX 2 members = %v, want [100]", rec.Info.Members)
		}
	}
}

func TestFacilityQuarantineReasons(t *testing.T) {
	setup(t)
	facs := strings.Join([]string{
		`{"name":"DC 1","city":"c1","country":"ZZ","tenants":[100,999],"updated":"2019-01-04T00:00:00Z"}`, // dangling tenant
		`{"name":"DC 2","city":"","country":"ZZ","updated":"2019-01-04T00:00:00Z"}`,                       // missing city
	}, "\n") + "\n"
	v := Load(corpus(map[string]string{DSAs2org: as2orgFixture, DSFacilities: facs}), testWorld)
	got := reasonsOf(v, DSFacilities)
	want := map[Reason]int{ReasonDangling: 1, ReasonMalformed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facility reasons = %v, want %v", got, want)
	}
	if n := v.Report.Datasets[DSFacilities].Kept; n != 1 {
		t.Fatalf("facilities kept %d, want 1", n)
	}
}

func TestAs2orgDanglingAut(t *testing.T) {
	setup(t)
	as2org := `# format:org_id|changed|org_name|country|source
O1|20190204|org-a.example|ZZ|SIM
# format:aut|changed|aut_name|org_id|opaque_id|source
100|20190204|AS100|O1||SIM
200|20190204|AS200|O9||SIM
23456|20190204|AS23456|O1||SIM
`
	v := Load(corpus(map[string]string{DSAs2org: as2org}), testWorld)
	got := reasonsOf(v, DSAs2org)
	want := map[Reason]int{ReasonDangling: 1, ReasonBogonASN: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("as2org reasons = %v, want %v", got, want)
	}
	if v.Registry.OrgOf(100) != "org-a.example" {
		t.Errorf("AS100 org = %q", v.Registry.OrgOf(100))
	}
	if v.Registry.OrgOf(200) != "" {
		t.Errorf("dangling AS200 still mapped to %q", v.Registry.OrgOf(200))
	}
}

func TestASRelConesRDNSQuarantine(t *testing.T) {
	setup(t)
	v := Load(corpus(map[string]string{
		DSAs2org: as2orgFixture,
		DSASRel:  "# source:sim\n100|200|-1\n100|300|7\n23456|200|0\n100|200\n",
		DSCones:  "100 12\n200 notanumber\n",
		DSRDNS:   "10.0.0.1\thost.example\nmissing-tab-line\n",
	}), testWorld)
	if got, want := reasonsOf(v, DSASRel), (map[Reason]int{ReasonBadRelType: 1, ReasonBogonASN: 1, ReasonMalformed: 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("asrel reasons = %v, want %v", got, want)
	}
	if got, want := reasonsOf(v, DSCones), (map[Reason]int{ReasonMalformed: 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("cones reasons = %v, want %v", got, want)
	}
	if got, want := reasonsOf(v, DSRDNS), (map[Reason]int{ReasonMalformed: 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("rdns reasons = %v, want %v", got, want)
	}
}

// TestEmptyDatasets: a dataset wiped by the plan (or absent from the
// corpus) is reported empty, so dependent stages can degrade.
func TestEmptyDatasets(t *testing.T) {
	setup(t)
	plan := &DirtyPlan{Seed: 1, Datasets: map[string]Dirt{DSFacilities: {DropFrac: 1.0}}}
	c := Serialize(testReg, testSeed, plan)
	if len(c.file(DSFacilities)) != 0 {
		t.Fatal("drop_frac=1.0 left facility bytes behind")
	}
	v := Load(c, testWorld)
	if !v.Empty(DSFacilities) {
		t.Fatalf("facilities not reported empty: %v", v.Report.EmptyDatasets)
	}
	if v.Empty(DSIXPs) {
		t.Error("ixps wrongly reported empty")
	}
	var nilView *View
	if nilView.Empty(DSFacilities) {
		t.Error("nil view reported a dataset empty")
	}
}

// TestWriteDirLoadDir: the on-disk corpus round-trips through the
// filesystem unchanged.
func TestWriteDirLoadDir(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	c := Serialize(testReg, testSeed, nil)
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Files) != len(c.Files) {
		t.Fatalf("loaded %d files, wrote %d", len(back.Files), len(c.Files))
	}
	for name := range c.Files {
		if !bytes.Equal(c.Files[name], back.Files[name]) {
			t.Errorf("%s changed on disk", name)
		}
	}
}

// TestModerateDirtyDegradesSmoothly: under the sample moderate plan most
// records survive — corruption is a haircut, not a decapitation.
func TestModerateDirtyDegradesSmoothly(t *testing.T) {
	setup(t)
	plan, err := LoadDirtyPlan("../../testdata/dirtyplans/moderate.json")
	if err != nil {
		t.Fatal(err)
	}
	clean := Load(Serialize(testReg, testSeed, nil), testWorld)
	dirty := Load(Serialize(testReg, testSeed, plan), testWorld)
	if dirty.Report.TotalQuarantined == 0 {
		t.Fatal("moderate plan quarantined nothing")
	}
	if len(dirty.Report.EmptyDatasets) != 0 {
		t.Fatalf("moderate plan emptied datasets %v", dirty.Report.EmptyDatasets)
	}
	ratio := float64(dirty.Report.TotalKept) / float64(clean.Report.TotalKept)
	if ratio < 0.85 {
		t.Fatalf("moderate plan kept only %.0f%% of records", ratio*100)
	}
	if dirty.Report.TotalConflicts == 0 {
		t.Error("moderate plan resolved no origin conflicts")
	}
}
