package learning

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"testing"

	"steerq/internal/feature"
	"steerq/internal/nn"
	"steerq/internal/xrand"
)

// savedModelFitsPath is where the nn package finds the fits below: it trains
// each one on every kernel body it has and checks the recorded hash, which it
// cannot get from this package (nn cannot import learning).
const savedModelFitsPath = "../nn/testdata/saved_model_fits.json"

// fitsRecord is every nn.Network.Train call behind TestSavedModelGolden's
// model: the shared training samples and, per epoch budget, the config, the
// streams that initialise and train the network
// (xrand.New(Seed).Derive(Init...) and .Derive(Train...)) and the FNV-1a 64
// hash of the trained network's JSON.
type fitsRecord struct {
	In, Hidden, Out int
	Seed            uint64
	Samples         []nn.Sample
	Fits            []recordedFit
}

type recordedFit struct {
	Cfg         nn.TrainConfig
	Init, Train []string
	Hash        uint64
}

func netHash(t *testing.T, net *nn.Network) uint64 {
	t.Helper()
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// TestSavedModelFitsRecorded rebuilds TestSavedModelGolden's fits the way
// Train builds them, checks that the network Train keeps is one of them, and
// that the committed record says the same. A missing record is written (and
// the test fails, so the new file is reviewed and committed); a stale one
// fails until it is deleted and rewritten this way.
func TestSavedModelFitsRecorded(t *testing.T) {
	ds, _ := groupFixture(t)
	split := NewSplit(len(ds.Examples), xrand.New(5))
	opts := DefaultTrainOptions()
	opts.Hidden = 16
	opts.NN.Epochs = 60
	const seed = 6
	r := xrand.New(seed)

	k := len(ds.Configs)
	trainFeats := make([]feature.JobFeatures, 0, len(split.Train))
	for _, i := range split.Train {
		trainFeats = append(trainFeats, ds.Examples[i].Feats)
	}
	enc := feature.Fit(trainFeats, k)
	rec := fitsRecord{In: enc.Width(), Hidden: opts.Hidden, Out: k, Seed: seed, Samples: samples(enc, ds, split.Train)}
	for _, epochs := range epochBudgets(opts.NN.Epochs) {
		cfg := opts.NN
		cfg.Epochs = epochs
		f := recordedFit{Cfg: cfg, Init: []string{"init", fmt.Sprint(epochs)}, Train: []string{"train", fmt.Sprint(epochs)}}
		net := nn.New(enc.Width(), opts.Hidden, k, r.Derive(f.Init...))
		net.Train(rec.Samples, cfg, r.Derive(f.Train...))
		f.Hash = netHash(t, net)
		rec.Fits = append(rec.Fits, f)
	}

	kept := netHash(t, Train(ds, split, opts, xrand.New(seed)).Net)
	found := false
	for _, f := range rec.Fits {
		found = found || f.Hash == kept
	}
	if !found {
		t.Fatalf("Train kept a network (hash %#016x) none of the rebuilt fits trained: this test no longer builds what Train builds", kept)
	}

	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := os.ReadFile(savedModelFitsPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(savedModelFitsPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", savedModelFitsPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale: delete it and rerun this test to rewrite it", savedModelFitsPath)
	}
}
