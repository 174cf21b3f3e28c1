package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"rowsim/internal/checkpoint"
	"rowsim/internal/serve"
	"rowsim/internal/sim"
)

// The serve-ckpt daemon and sweep shape. Two workers on a 2-vCPU host
// contend for the CPUs and the heap; the checkpoint cadence makes
// persistence (JSON encoding, fsync, rename) most of a cell's cost.
const (
	serveWorkers    = 2
	serveCkptEvery  = 2048
	servePoll       = 5 * time.Millisecond
	serveTenant     = "bench-a"
	serveMemoTenant = "bench-b"
)

// The client submits serveSweeps sweeps per daemon lifetime (one
// pass), taking them in turn from serveRotation sweeps per benchmark
// seed, so one run measures serveRotation distinct sweeps. Simulated
// cycles, and with them a cell's checkpoint count (its cycles over the
// cadence, rounded down), vary by tens of percent from one trace seed
// to the next; a run's cost follows their sum over many sweeps, which
// varies far less from one benchmark seed to the next. A cadence of
// several checkpoints per cell keeps the rounding small beside that.
const (
	serveSweeps   = 1
	serveRotation = 12
)

// servePasses is the number of passes that submit every sweep once.
const servePasses = serveRotation / serveSweeps

// serveStartups is the number of daemon start-ups timed per pass.
const serveStartups = 5

// serveSpecs returns the sweeps pass n submits: sps at one shared
// fraction (0.25 for even sweeps, 0.75 for odd ones) under the three
// policies, 8 cores x 4000, each sweep with its own trace seed
// (benchmark seed s owns trace seeds 12s+1 .. 12s+12, so no two
// benchmark seeds share a sweep). The warm-up pass 0 takes the last
// group, so passes 1..servePasses take them in order.
func serveSpecs(seed uint64, n int) []serve.SweepSpec {
	group := (n + servePasses - 1) % servePasses
	specs := make([]serve.SweepSpec, serveSweeps)
	for j := range specs {
		k := group*serveSweeps + j
		specs[j] = serve.SweepSpec{
			Workload: "sps", Param: "sharedfrac", Values: []float64{[]float64{0.25, 0.75}[k%2]},
			Policies: []string{"eager", "lazy", "row"}, Cores: 8, Instrs: 4000,
			Seed: seed*serveRotation + uint64(k) + 1,
		}
		// The spec is a constant shape; Normalize only fills defaults.
		_ = specs[j].Normalize()
	}
	return specs
}

// client is the benchmark's single closed-loop HTTP client: one
// keep-alive connection, each request sent after the previous answer.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) do(method, path, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sweep submits spec as tenant, polls it to done and returns its
// results document. admitS is the POST's latency.
func (c *client) sweep(ctx context.Context, tr *tracer, tenant string, spec serve.SweepSpec) (doc []byte, id string, admitS float64, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, "", 0, err
	}
	sp := tr.begin("serve.admit", 0)
	t0 := time.Now()
	code, b, err := c.do("POST", "/v1/sweeps", tenant, body)
	admitS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, "", 0, err
	}
	if code != http.StatusAccepted {
		return nil, "", 0, fmt.Errorf("submit as %s: HTTP %d: %s", tenant, code, b)
	}
	var view serve.SweepView
	if err := json.Unmarshal(b, &view); err != nil {
		return nil, "", 0, err
	}
	sp = tr.begin("serve.poll", 0)
	for view.Status != "done" {
		if view.Status == "canceled" {
			tr.end(sp)
			return nil, "", 0, fmt.Errorf("sweep %s canceled", view.ID)
		}
		select {
		case <-ctx.Done():
			tr.end(sp)
			return nil, "", 0, ctx.Err()
		case <-time.After(servePoll):
		}
		code, b, err = c.do("GET", "/v1/sweeps/"+view.ID, tenant, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll %s: HTTP %d: %s", view.ID, code, b)
		}
		if err == nil {
			err = json.Unmarshal(b, &view)
		}
		if err != nil {
			tr.end(sp)
			return nil, "", 0, err
		}
	}
	tr.end(sp)
	sp = tr.begin("serve.results", 0)
	code, b, err = c.do("GET", "/v1/sweeps/"+view.ID+"/results", tenant, nil)
	tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("results %s: HTTP %d: %s", view.ID, code, b)
	}
	return b, view.ID, admitS, err
}

// daemon is one in-process rowserve instance on a loopback listener.
type daemon struct {
	hs     *httptest.Server
	cl     *client
	stop   context.CancelFunc
	runErr chan error
}

// startDaemon opens the server, serves its handler and starts Run,
// then waits for the first 200 from /readyz.
func startDaemon(ctx context.Context, dir string) (*daemon, error) {
	srv, err := serve.Open(serve.Config{
		Journal:         filepath.Join(dir, "journal.jsonl"),
		Workers:         serveWorkers,
		CheckpointEvery: serveCkptEvery,
		CheckpointDir:   filepath.Join(dir, "ckpt"),
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{hs: httptest.NewServer(srv.Handler()), runErr: make(chan error, 1)}
	d.cl = &client{base: d.hs.URL, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
	runCtx, stop := context.WithCancel(ctx)
	d.stop = stop
	go func() { d.runErr <- srv.Run(runCtx) }()
	for {
		code, _, err := d.cl.do("GET", "/readyz", "", nil)
		if err == nil && code == http.StatusOK {
			return d, nil
		}
		if ctx.Err() != nil {
			d.close()
			return nil, ctx.Err()
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close drains the daemon, waits for Run to return and shuts the
// listener down.
func (d *daemon) close() error {
	d.stop()
	err := <-d.runErr
	d.cl.hc.CloseIdleConnections()
	d.hs.Close()
	return err
}

// servePass runs one daemon lifetime: start-up, then for each sweep a
// computing submission and the same spec resubmitted by a second
// tenant (served from the memo), then drain. A traced pass afterwards
// replays every cell directly, with checkpoints and a resume, to time
// the layers the daemon hides.
func servePass(ctx context.Context, tr *tracer, seed uint64, n int) (*passOut, error) {
	dir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	specs := serveSpecs(seed, n)
	p := &passOut{Layer: map[string]float64{}}
	mark := 0
	if tr != nil {
		mark = tr.mark()
	}
	// Start-up takes about a millisecond, so one sample per pass is
	// noisy: start and drain serveStartups-1 idle daemons first, and
	// report the median with the pass's own start-up.
	var setups []float64
	for k := 1; k < serveStartups; k++ {
		sub := filepath.Join(dir, fmt.Sprintf("idle%d", k))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := startDaemon(ctx, sub)
		if err != nil {
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := d.close(); err != nil {
			return nil, err
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()

	sp := tr.begin("serve.open", 0)
	d, err := startDaemon(ctx, dir)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	p.SetupS = median(append(setups, time.Since(start).Seconds()))

	docs := make([][]byte, len(specs))
	var admits, memos []float64
	for j, spec := range specs {
		t0 := time.Now()
		sp = tr.begin("sweep", 1+2*j)
		doc, idA, admitS, serr := d.cl.sweep(ctx, tr, serveTenant, spec)
		tr.end(sp)
		if err = serr; err != nil {
			break
		}
		p.Turnarounds = append(p.Turnarounds, time.Since(t0).Seconds())
		admits = append(admits, admitS)
		docs[j] = doc

		t1 := time.Now()
		sp = tr.begin("serve.memo_sweep", 2+2*j)
		docB, idB, _, serr := d.cl.sweep(ctx, nil, serveMemoTenant, spec)
		tr.end(sp)
		if err = serr; err != nil {
			break
		}
		memos = append(memos, time.Since(t1).Seconds())
		// The memo resubmission must return the computed document byte
		// for byte, apart from its tenant-scoped sweep ID.
		if !bytes.Equal(bytes.ReplaceAll(doc, []byte(idA), nil), bytes.ReplaceAll(docB, []byte(idB), nil)) {
			p.Extra = append(p.Extra, fmt.Sprintf("seed %d: memo resubmission differs from the computed results doc", spec.Seed))
		}
	}
	var st serve.Stats
	if err == nil {
		var b []byte
		var code int
		code, b, err = d.cl.do("GET", "/v1/stats", "", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("stats: HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(b, &st)
		}
	}
	if fi, serr := os.Stat(filepath.Join(dir, "journal.jsonl")); serr == nil {
		p.Layer["lifecycle.journal_bytes"] = float64(fi.Size())
	}
	sp = tr.begin("serve.drain", 0)
	cerr := d.close()
	tr.end(sp)
	if err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	p.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	p.AllocBytes = ms.TotalAlloc - alloc0
	p.Layer["serve.admit_s_p50"] = median(admits)
	p.Layer["serve.memo_sweep_s_p50"] = median(memos)
	p.Layer["serve.memo_hit_ratio"] = st.CacheHitRate
	p.Layer["serve.retries"] = float64(st.Retries)

	for j, spec := range specs {
		var doc serve.ResultsDoc
		if err := json.Unmarshal(docs[j], &doc); err != nil {
			return nil, fmt.Errorf("results doc: %w", err)
		}
		results := make([]sim.Result, len(doc.Cells))
		for i, c := range doc.Cells {
			var cerr error
			if c.Status != "ok" || c.Result == nil {
				cerr = fmt.Errorf("status %s: %s", c.Status, c.Error)
			} else {
				results[i] = *c.Result
				p.Committed += c.Result.Committed
			}
			p.Errs = append(p.Errs, cerr)
			p.Cells = append(p.Cells, goldenCell{
				Cell:   fmt.Sprintf("seed=%d/%s", spec.Seed, c.Key),
				Digest: digest(results[i], nil),
				Cycles: results[i].Cycles, CyclesVisited: results[i].CyclesVisited,
			})
		}
		if tr != nil {
			if err := replayCells(ctx, tr, spec, results, filepath.Join(dir, "replay"), p); err != nil {
				return nil, err
			}
		}
	}
	if tr != nil {
		p.Layer["checkpoint.bytes_per_save"] = ratio(p.Layer["checkpoint.bytes"], p.Layer["checkpoint.saves"])
		p.Self = tr.selfTimes(mark)
		p.ReplayS = time.Since(start).Seconds() - p.WallS - p.Self["bench.snapshot"]
	}
	return p, nil
}

// replayCells re-runs each cell of spec directly, through the same
// SweepSpec.Cells/WorkloadParams/Config calls the daemon makes, with
// every checkpoint written by checkpoint.Save. It then resumes the
// newest checkpoint into a fresh system and runs it to the end. Both
// runs must reproduce the daemon's result for the cell.
func replayCells(ctx context.Context, tr *tracer, spec serve.SweepSpec, daemonRes []sim.Result, dir string, p *passOut) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var saves, saveBytes float64
	for i, c := range spec.Cells() {
		cellSaves := 0
		wp, err := spec.WorkloadParams(c)
		if err != nil {
			return err
		}
		key, err := spec.ContentKey(c)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("cell%d.ckpt", i))
		save := func(_ uint64, snap *sim.SysSnap) error {
			sp := tr.begin("checkpoint.save", 0)
			err := checkpoint.Save(path, key, snap)
			tr.end(sp)
			if err != nil {
				return err
			}
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			cellSaves++
			saves++
			saveBytes += float64(fi.Size())
			return nil
		}
		cellID := int(spec.Seed)*100 + i // unique per sweep cell; sweep spans use 1..2*serveSweeps
		out, sys, progs, err := simCell(ctx, tr, cellID, c.Key, wp, spec.Config(c), spec.Cores, spec.Instrs, spec.Seed,
			sim.WithCheckpoint(serveCkptEvery, save))
		if err != nil {
			return err
		}
		out.Counts.addHops(tr, cellID, sys)
		p.Counts.add(out.Counts)
		p.ConstructAlloc += out.ConstructAlloc
		p.WarmAlloc += out.WarmAlloc
		p.RunAlloc += out.RunAlloc
		if i < len(daemonRes) && !reflect.DeepEqual(out.Result, daemonRes[i]) {
			p.Extra = append(p.Extra, fmt.Sprintf("%s: direct replay differs from the daemon's result", c.Key))
		}
		if cellSaves == 0 {
			continue
		}

		root := tr.begin("resume", cellID)
		cfg := spec.Config(c)
		cfg.WarmCaches = false
		sp := tr.begin("sim.construct", 0)
		fresh, err := sim.New(cfg, progs)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		sp = tr.begin("checkpoint.load", 0)
		snap, _, err := checkpoint.Load(path, key)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		sp = tr.begin("sim.restore", 0)
		err = fresh.RestoreSnap(snap)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		sp = tr.begin("sim.run", 0)
		res, err := fresh.RunCtx(ctx)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res, out.Result) {
			p.Extra = append(p.Extra, fmt.Sprintf("%s: checkpoint-resumed run differs from the uninterrupted one", c.Key))
		}
	}
	p.Layer["checkpoint.saves"] += saves
	p.Layer["checkpoint.bytes"] += saveBytes
	return nil
}
