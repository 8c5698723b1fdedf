package feature

import (
	"encoding/json"
	"slices"
	"testing"
	"testing/quick"

	"steerq/internal/bitvec"
	"steerq/internal/plan"
	"steerq/internal/xrand"
)

func sampleFeatures(r *xrand.Source, k int) JobFeatures {
	f := JobFeatures{
		InputBytes:   r.Uniform(1e6, 1e12),
		InputsHash:   uint64(r.Int63()),
		TemplateHash: uint64(r.Int63()),
		OpStats:      map[plan.PhysOp]OpStat{},
		EstCosts:     make([]float64, k),
		Diffs:        make([]bitvec.Vector, k),
		Valid:        make([]bool, k),
	}
	for _, op := range []plan.PhysOp{plan.PhysExtract, plan.PhysFilter, plan.PhysHashJoin} {
		f.OpStats[op] = OpStat{Count: r.Intn(5), AvgCost: r.Uniform(0, 100), AvgRows: r.Uniform(1, 1e9)}
	}
	for i := 0; i < k; i++ {
		f.EstCosts[i] = r.Uniform(1, 1e4)
		var d bitvec.Vector
		for b := 0; b < r.Intn(5); b++ {
			d.Set(r.Intn(bitvec.Width))
		}
		f.Diffs[i] = d
		f.Valid[i] = r.Bool(0.9)
	}
	return f
}

func TestEncodeWidthMatches(t *testing.T) {
	r := xrand.New(1)
	const k = 5
	train := make([]JobFeatures, 30)
	for i := range train {
		train[i] = sampleFeatures(r.Derive("s", string(rune('a'+i))), k)
	}
	e := Fit(train, k)
	for i, f := range train {
		if got := len(e.Encode(f)); got != e.Width() {
			t.Fatalf("sample %d encoded to %d values, Width() = %d", i, got, e.Width())
		}
	}
	// Unseen features encode to the same width too.
	unseen := sampleFeatures(r.Derive("unseen"), k)
	if got := len(e.Encode(unseen)); got != e.Width() {
		t.Fatalf("unseen sample width %d != %d", got, e.Width())
	}
}

func TestEncodeValuesNormalized(t *testing.T) {
	r := xrand.New(2)
	const k = 3
	train := make([]JobFeatures, 20)
	for i := range train {
		train[i] = sampleFeatures(r.Derive("s", string(rune('a'+i))), k)
	}
	e := Fit(train, k)
	f := func(seed uint64) bool {
		x := e.Encode(sampleFeatures(xrand.New(seed), k))
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashBinsOneHot(t *testing.T) {
	r := xrand.New(3)
	const k = 2
	train := []JobFeatures{sampleFeatures(r, k)}
	e := Fit(train, k)
	x := e.Encode(train[0])
	// Input-hash bins occupy positions [1, 1+HashBins); exactly one is hot.
	hot := 0
	for _, v := range x[1 : 1+HashBins] {
		if v == 1 {
			hot++
		} else if v != 0 {
			t.Fatalf("hash bin value %v", v)
		}
	}
	if hot != 1 {
		t.Fatalf("%d hot input-hash bins, want 1", hot)
	}
}

func TestInvalidArmEncodesZero(t *testing.T) {
	r := xrand.New(4)
	const k = 2
	f := sampleFeatures(r, k)
	f.Valid[1] = false
	e := Fit([]JobFeatures{f}, k)
	x := e.Encode(f)
	// The second arm's block is all zeros; its validity flag leads the
	// block.
	armW := 2 + len(e.DiffIDs)
	start := e.Width() - armW
	for i, v := range x[start:] {
		if v != 0 {
			t.Fatalf("invalid arm block position %d = %v", i, v)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := xrand.New(5)
	const k = 4
	f := sampleFeatures(r, k)
	e := Fit([]JobFeatures{f}, k)
	a := e.Encode(f)
	b := e.Encode(f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Encode not deterministic")
		}
	}
}

func TestPlanOpStats(t *testing.T) {
	k := plan.Column{ID: 1, Name: "k"}
	scan := &plan.PhysNode{Op: plan.PhysExtract, Table: "s", Schema: []plan.Column{k}, EstRows: 100, EstCost: 2}
	f1 := &plan.PhysNode{Op: plan.PhysFilter, Schema: []plan.Column{k}, Children: []*plan.PhysNode{scan}, EstRows: 50, EstCost: 4}
	f2 := &plan.PhysNode{Op: plan.PhysFilter, Schema: []plan.Column{k}, Children: []*plan.PhysNode{f1}, EstRows: 10, EstCost: 2}
	stats := PlanOpStats(f2)
	if stats[plan.PhysFilter].Count != 2 {
		t.Fatalf("filter count %d", stats[plan.PhysFilter].Count)
	}
	if stats[plan.PhysFilter].AvgCost != 3 {
		t.Fatalf("filter avg cost %v", stats[plan.PhysFilter].AvgCost)
	}
	if stats[plan.PhysExtract].AvgRows != 100 {
		t.Fatalf("scan avg rows %v", stats[plan.PhysExtract].AvgRows)
	}
}

// encodeReference is the encoder as first written — temporary slices appended
// together, ranges looked up by string key per value. Encode must keep
// producing exactly its output.
func encodeReference(e *Encoder, f JobFeatures) []float64 {
	norm := func(key string, v float64) float64 {
		r, ok := e.Ranges[key]
		if !ok || r[1] <= r[0] {
			return 0
		}
		x := (v - r[0]) / (r[1] - r[0])
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	x := []float64{norm("inputBytes", logScale(f.InputBytes))}
	inBins := make([]float64, HashBins)
	inBins[int(f.InputsHash%HashBins)] = 1
	x = append(x, inBins...)
	tBins := make([]float64, HashBins)
	tBins[int(f.TemplateHash%HashBins)] = 1
	x = append(x, tBins...)
	for _, op := range e.Ops {
		s := f.OpStats[op]
		x = append(x,
			norm("count:"+op.String(), float64(s.Count)),
			norm("cost:"+op.String(), logScale(s.AvgCost)),
			norm("rows:"+op.String(), logScale(s.AvgRows)),
		)
	}
	for ki := 0; ki < e.K; ki++ {
		bits := make([]float64, len(e.DiffIDs))
		if ki >= len(f.EstCosts) || (f.Valid != nil && !f.Valid[ki]) {
			x = append(x, 0, 0)
			x = append(x, bits...)
			continue
		}
		x = append(x, 1, norm("estCost", logScale(f.EstCosts[ki])))
		for bi, id := range e.DiffIDs {
			if f.Diffs[ki].Get(id) {
				bits[bi] = 1
			}
		}
		x = append(x, bits...)
	}
	return x
}

func TestEncodeMatchesReference(t *testing.T) {
	r := xrand.New(6)
	const k = 4
	train := make([]JobFeatures, 25)
	for i := range train {
		train[i] = sampleFeatures(r.Derive("train", string(rune('a'+i))), k)
	}
	train[3].Valid = nil                      // every arm counts as compiled
	train[4].EstCosts = train[4].EstCosts[:2] // fewer arms than K
	e := Fit(train, k)

	probes := append([]JobFeatures(nil), train...)
	for i := 0; i < 25; i++ { // unseen jobs fall outside the fitted ranges
		probes = append(probes, sampleFeatures(r.Derive("probe", string(rune('a'+i))), k))
	}
	probes = append(probes, JobFeatures{})
	var buf []float64
	for i, f := range probes {
		want := encodeReference(e, f)
		if got := e.Encode(f); !slices.Equal(got, want) {
			t.Fatalf("probe %d: Encode differs from the reference\n got %v\nwant %v", i, got, want)
		}
		// A reused buffer is fully overwritten, whatever the last job left.
		buf = e.EncodeInto(buf, f)
		if !slices.Equal(buf, want) {
			t.Fatalf("probe %d: EncodeInto with a reused buffer differs from the reference", i)
		}
	}
}

func TestEncoderJSONRoundTrip(t *testing.T) {
	r := xrand.New(7)
	const k = 3
	train := make([]JobFeatures, 10)
	for i := range train {
		train[i] = sampleFeatures(r.Derive("s", string(rune('a'+i))), k)
	}
	e := Fit(train, k)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Encoder
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("encoder changed across a JSON round trip:\n%s\n%s", data, again)
	}
	for i, f := range train {
		if !slices.Equal(got.Encode(f), e.Encode(f)) {
			t.Fatalf("sample %d: decoded encoder encodes differently", i)
		}
	}

	// An encoder fitted on nothing keeps its historical serialization.
	empty, err := json.Marshal(Fit(nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	var fields struct {
		DiffIDs json.RawMessage `json:"diff_ids"`
		Ranges  json.RawMessage `json:"ranges"`
	}
	if err := json.Unmarshal(empty, &fields); err != nil {
		t.Fatal(err)
	}
	if string(fields.DiffIDs) != "null" || string(fields.Ranges) != "{}" {
		t.Fatalf("empty fit serialized diff_ids=%s ranges=%s, want null and {}", fields.DiffIDs, fields.Ranges)
	}
}

func TestEncoderRejectsMalformedJSON(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":          `{"k":`,
		"negative k":        `{"k":-1,"ops":[],"diff_ids":null,"ranges":{}}`,
		"diff id too large": `{"k":1,"ops":[],"diff_ids":[100000],"ranges":{}}`,
		"diff id negative":  `{"k":1,"ops":[],"diff_ids":[-1],"ranges":{}}`,
	} {
		var e Encoder
		if err := json.Unmarshal([]byte(doc), &e); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
