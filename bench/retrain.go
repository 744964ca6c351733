package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/pipeline"
	"tipsy/internal/wan"
)

// retrain runs the daily retrain (§4.3) on the medium env: encode the
// training window, fit the three Historical models, checkpoint and
// reload them, and grade the reloaded ensemble on the days that
// follow. Training, persistence and bulk predict do all the work;
// ipfix and sockets do none.
type retrain struct {
	cfg                 config
	trainDays, testDays int

	env         *env
	train, test []features.Record
	simDur      time.Duration

	mu sync.Mutex
	// first is the first op's outcome; every later op must repeat it.
	//tipsy:guardedby mu
	first *retrainOutcome
}

type retrainOutcome struct {
	top1, top3      float64
	tuples, ckBytes int
}

func newRetrain(cfg config) *retrain {
	r := &retrain{cfg: cfg, trainDays: 8, testDays: 2}
	if cfg.tiny {
		r.trainDays, r.testDays = 2, 1
	}
	return r
}

func (r *retrain) numClients() int      { return 2 }
func (r *retrain) limit() time.Duration { return 3 * time.Second }
func (r *retrain) sutPID() int          { return os.Getpid() }

func (r *retrain) setup(ctx context.Context) error {
	days := r.trainDays + r.testDays
	r.env = mediumEnv(r.cfg.seed, days, r.cfg.tiny)
	all, simDur := r.env.aggregate(0, wan.Hour(days*24))
	r.simDur = simDur
	split := wan.Hour(r.trainDays * 24)
	r.train = dataset.Window(all, 0, split)
	r.test = dataset.Window(all, split, wan.Hour(days*24))
	r.mu.Lock()
	r.first = nil
	r.mu.Unlock()
	if len(r.train) == 0 || len(r.test) == 0 {
		return fmt.Errorf("empty window: %d train, %d test records", len(r.train), len(r.test))
	}
	return nil
}

func (r *retrain) teardown() {}

func (r *retrain) op(client, seq int, tr *tracer, root int) opOutcome {
	t0 := time.Now()
	sp := tr.start("pipeline.encode", root, client)
	enc := pipeline.Encode(r.train)
	tr.end(sp)

	sp = tr.start("core.train", root, client)
	saved := r.env.trainLadder(r.train)
	tr.end(sp)

	sp = tr.start("core.checkpoint_save", root, client)
	var buf bytes.Buffer
	ck := core.Checkpoint{TrainedAt: wan.Hour(r.trainDays * 24), Models: []*core.Historical{saved.hAP, saved.hAL, saved.hA}}
	err := ck.Save(&buf)
	tr.end(sp)
	ckBytes := buf.Len()
	if err != nil {
		return opOutcome{time.Since(t0), 0, err}
	}

	sp = tr.start("core.checkpoint_load", root, client)
	back, err := core.LoadCheckpoint(&buf)
	tr.end(sp)
	if err != nil || len(back.Models) != 3 {
		return opOutcome{time.Since(t0), 0, fmt.Errorf("reload checkpoint: %d models, %v", len(back.Models), err)}
	}
	loaded := &ladder{hAP: back.Models[0], hAL: back.Models[1], hA: back.Models[2]}
	loaded.assemble(r.env)

	sp = tr.start("eval.accuracy", root, client)
	acc := eval.Accuracy(loaded.rungs[0], r.test, eval.Options{Ks: []int{1, 3}})
	tr.end(sp)
	lat := time.Since(t0)

	sp = tr.start("loadgen.verify", root, client)
	got := retrainOutcome{acc[1], acc[3], saved.tuples(), ckBytes}
	err = r.verify(enc, saved, loaded, got)
	tr.end(sp)
	return opOutcome{lat, len(r.train) + len(r.test), err}
}

// verify is the retrain oracle: the encoding holds every record, the
// outcome repeats the first op's exactly, and the reloaded checkpoint
// predicts what the saved models predict.
func (r *retrain) verify(enc *pipeline.Encoded, saved, loaded *ladder, got retrainOutcome) error {
	if len(enc.Rows) != len(r.train) {
		return fmt.Errorf("encoded %d rows from %d records", len(enc.Rows), len(r.train))
	}
	r.mu.Lock()
	if r.first == nil {
		r.first = &got
	}
	first := *r.first
	r.mu.Unlock()
	if got != first {
		return fmt.Errorf("retrain does not repeat: %+v, first op %+v", got, first)
	}
	step := max(len(r.test)/1000, 1)
	for i := 0; i < len(r.test); i += step {
		q := core.Query{Flow: r.test[i].Flow, K: predictK}
		a, b := saved.rungs[0].Predict(q), loaded.rungs[0].Predict(q)
		if len(a) != len(b) {
			return fmt.Errorf("reloaded checkpoint predicts %d links, saved models %d", len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				return fmt.Errorf("reloaded checkpoint predicts %v, saved models %v", b[j], a[j])
			}
		}
	}
	return nil
}

func (r *retrain) beginWindow() error { return nil }

func (r *retrain) endWindow(st loopStats, res *result) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.first == nil {
		return nil
	}
	m := res.metrics
	m["core.tuples"] = float64(r.first.tuples)
	m["core.checkpoint_bytes"] = float64(r.first.ckBytes)
	m["eval.top1"] = r.first.top1
	m["eval.top3"] = r.first.top3
	return nil
}

// layers times bulk prediction alone, one query per evaluation group,
// without eval.Accuracy's grouping and crediting around it.
func (r *retrain) layers(res *result) {
	model := r.env.trainLadder(r.train).rungs[0]
	groups := eval.BuildGroups(r.test, eval.Options{})
	t0 := time.Now()
	for i := range groups {
		model.Predict(core.Query{Flow: groups[i].Flow, K: predictK})
	}
	res.metrics["core.predict_ns_per_query"] = float64(time.Since(t0)) / float64(max(len(groups), 1))
	res.metrics["netsim.run_ms"] = ms(r.simDur)
}
