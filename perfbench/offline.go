package main

import (
	"fmt"
	"os"
	"time"

	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/entropy"
	"dita/internal/fwio"
	"dita/internal/lda"
	"dita/internal/mobility"
	"dita/internal/rrr"
)

// trainConfig is the training configuration dita-sim and dita-bench use.
var trainConfig = core.Config{TopWillingnessLocations: 8}

// cutoffHours is the offline/online split: evaluation day 25.
const cutoffHours = 25 * 24

// frameworkSource is the artifact source string in the exact form
// dita-sim and dita-bench record, so the sealed artifact is the one
// those tools would produce for the same run.
func frameworkSource(dp dataset.Params) string {
	return fmt.Sprintf("dataset=%s users=%d venues=%d days=%d dataset-seed=%d cutoff-h=%g",
		dp.Name, dp.NumUsers, dp.NumVenues, dp.Days, dp.Seed, float64(cutoffHours))
}

// generate builds the BK dataset and extracts the training data before
// the cutoff, recording one span per step under parent.
func generate(rec *recorder, parent int) (*dataset.Data, core.TrainingData, error) {
	id := rec.begin(parent, "dataset.generate", -1)
	data, err := dataset.Generate(dataset.BrightkiteLike())
	rec.end(id)
	if err != nil {
		return nil, core.TrainingData{}, fmt.Errorf("dataset: %w", err)
	}
	id = rec.begin(parent, "dataset.extract", -1)
	docs, vocab := data.Documents(cutoffHours)
	td := core.TrainingData{
		Graph:     data.Graph,
		Histories: data.HistoriesBefore(cutoffHours),
		Documents: docs,
		Vocab:     vocab,
		Records:   data.CheckInsBefore(cutoffHours),
	}
	rec.end(id)
	return data, td, nil
}

// offline is the result of the cold offline phase: the dataset, the
// trained framework and its sealed artifact on disk.
type offline struct {
	data     *dataset.Data
	fw       *core.Framework
	path     string
	checksum string
	bytes    int64

	// trainS is the cold offline phase's wall time: dataset generation
	// and extraction, core.Train, and sealing the artifact to disk.
	trainS float64
}

// trainTimed runs the offline phase the way a user does — generate the
// dataset, core.Train, fwio.Write — and loads the artifact back to
// verify its seal.
func trainTimed(path string, clock func() time.Duration, g *gates) (*offline, error) {
	o := &offline{path: path}
	t0 := clock()
	data, td, err := generate(nil, -1)
	if err != nil {
		return nil, err
	}
	fw, err := core.Train(td, trainConfig)
	if err != nil {
		return nil, fmt.Errorf("core.Train: %w", err)
	}
	sum, err := fwio.Write(path, fw, frameworkSource(data.Params))
	if err != nil {
		return nil, err
	}
	o.trainS = secs(clock() - t0)
	o.data, o.fw, o.checksum = data, fw, sum
	return o, o.verifyArtifact(g)
}

// verifyArtifact loads the sealed artifact back: the seal must verify
// and carry the checksum and source the write reported.
func (o *offline) verifyArtifact(g *gates) error {
	st, err := os.Stat(o.path)
	if err != nil {
		return err
	}
	o.bytes = st.Size()
	_, info, err := fwio.Load(o.path)
	g.check(err == nil, "artifact does not load back: %v", err)
	if err == nil {
		g.check(info.Checksum == o.checksum, "artifact checksum %.12s… after load, %.12s… at seal", info.Checksum, o.checksum)
		g.check(info.Source == frameworkSource(o.data.Params), "artifact source %q", info.Source)
	}
	return nil
}

// trainLayers are the traced offline phase's per-layer measurements.
type trainLayers struct {
	datasetS, ldaS, mobilityS, entropyS, rrrS, restoreS float64
	encodeS, writeS, loadS                              float64
	rrrSets                                             int
}

// trainTraced fits the framework one component at a time — the steps
// core.Train takes, each its own span — restores it, seals it and loads
// it back. The sealed artifact must carry the same checksum as
// core.Train's framework, which the traced run also trains (untimed,
// under the verify layer).
func trainTraced(path string, clock func() time.Duration, rec *recorder, g *gates) (*offline, trainLayers, error) {
	var l trainLayers
	o := &offline{path: path}
	lap := func(name string, f func()) float64 {
		id := rec.begin(root, name, -1)
		t0 := clock()
		f()
		d := clock() - t0
		rec.end(id)
		return secs(d)
	}

	t0 := clock()
	data, td, err := generate(rec, root)
	if err != nil {
		return nil, l, err
	}
	l.datasetS = secs(clock() - t0)
	o.data = data
	cfg := trainConfig

	var ldaModel *lda.Model
	l.ldaS = lap("lda.train", func() { ldaModel, err = lda.Train(td.Documents, td.Vocab, cfg.LDA) })
	if err != nil {
		return nil, l, fmt.Errorf("lda.Train: %w", err)
	}
	var theta [][]float64
	lap("core.theta", func() {
		theta = make([][]float64, td.Graph.N())
		for u := range td.Documents {
			if len(td.Documents[u]) > 0 {
				theta[u] = ldaModel.DocTopics(u)
			}
		}
	})
	var mob *mobility.Model
	l.mobilityS = lap("mobility.fit", func() { mob = mobility.Fit(td.Histories, cfg.Mobility) })
	var ent *entropy.Table
	l.entropyS = lap("entropy.compute", func() { ent = entropy.Compute(td.Records) })
	var prop *rrr.Collection
	l.rrrS = lap("rrr.build", func() { prop = rrr.Build(td.Graph, cfg.RPO) })
	l.rrrSets = prop.NumSets()
	var fw *core.Framework
	l.restoreS = lap("core.restore", func() { fw, err = core.Restore(cfg, td.Graph, ldaModel, theta, mob, ent, prop) })
	if err != nil {
		return nil, l, fmt.Errorf("core.Restore: %w", err)
	}

	source := frameworkSource(data.Params)
	var encSum string
	l.encodeS = lap("fwio.encode", func() { _, encSum, err = fwio.Encode(fw, source) })
	if err != nil {
		return nil, l, err
	}
	l.writeS = lap("fwio.write", func() { o.checksum, err = fwio.Write(path, fw, source) })
	if err != nil {
		return nil, l, err
	}
	l.loadS = lap("fwio.load", func() { err = o.verifyArtifact(g) })
	if err != nil {
		return nil, l, err
	}
	o.fw = fw

	lap("verify.core_train", func() {
		ref, terr := core.Train(td, cfg)
		if terr != nil {
			err = terr
			return
		}
		_, refSum, eerr := fwio.Encode(ref, source)
		if eerr != nil {
			err = eerr
			return
		}
		g.check(refSum == o.checksum, "component-wise training seals to %.12s…, core.Train to %.12s…", o.checksum, refSum)
		g.check(encSum == o.checksum, "fwio.Encode checksum %.12s… differs from fwio.Write's %.12s…", encSum, o.checksum)
	})
	if err != nil {
		return nil, l, fmt.Errorf("reference core.Train: %w", err)
	}
	return o, l, nil
}
