package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"keddah/internal/core"
	"keddah/internal/serve"
	"keddah/internal/telemetry"
)

// serve: an in-process keddah-serve behind a loopback HTTP server, driven
// by two closed-loop clients that each read a stream to its last byte
// before sending the next request. Requests rotate jsonl/csv/ns3 on
// /v1/generate, with every tenth a /v1/mix; every request has its own
// spec seed, so no two ops ask for the same stream.
type serveBench struct {
	seed   int64
	dir    string
	tel    *telemetry.Telemetry
	srv    *serve.Server
	http   *httptest.Server
	client *http.Client
	model  *core.Model // the served model, read back from its file
	bufs   sync.Pool   // the clients' read buffers
}

// serveRequest is one request.
type serveRequest struct {
	format string
	gen    *core.GenSpec
	mix    *core.MixSpec
}

// expected is what a stream holds: its flow records, bytes and SHA-256.
type expected struct {
	flows  int
	bytes  int64
	digest string
}

var serveFormats = []string{"jsonl", "csv", "ns3"}

const (
	serveMixEvery = 10 // every tenth op is a mix
	serveChunk    = 2048
	serveModel    = "bench"
)

func newServe(cfg config) (instance, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "serve-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{seed: cfg.Seed, dir: dir, tel: telemetry.New()}
	b.bufs.New = func() any { buf := make([]byte, 32<<10); return &buf }
	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// start captures and fits the corpus, writes the model, starts the
// server and loads the model with a first request.
func (b *serveBench) start() error {
	spec, runs := corpusSpec(b.seed)
	ts, _, err := core.Capture(spec, runs)
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	m, err := core.Fit(ts, core.FitOptions{})
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	path := filepath.Join(b.dir, serveModel+".json")
	if err := writeModel(path, m); err != nil {
		return err
	}
	b.srv, err = serve.New(serve.Config{
		Models:     map[string]string{serveModel: path},
		ChunkFlows: serveChunk,
		Telemetry:  b.tel,
	})
	if err != nil {
		return err
	}
	b.http = httptest.NewServer(b.srv.Handler())
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
	warm := serveRequest{format: "jsonl", gen: &core.GenSpec{Workload: "terasort", Workers: 16, Seed: 1}}
	if _, _, _, err := b.send(warm); err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	return nil
}

func writeModel(path string, m *core.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write model: %w", err)
	}
	return f.Close()
}

// prepare reads the served model back from its file, for the
// in-process generate every stream is checked against. It runs once,
// outside set-up: it is the benchmark's oracle, not the program's work.
func (b *serveBench) prepare() error {
	f, err := os.Open(filepath.Join(b.dir, serveModel+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	b.model, err = core.ReadModel(f)
	return err
}

// expect generates and encodes r in process, as the server's handler
// does, and returns what the stream must hold. With a span it also times
// the generation and a plain encoding as spans beside the stream.
func (b *serveBench) expect(r serveRequest, sp spanRef) (expected, error) {
	s := sp.sibling("core.generate")
	sched, err := b.generate(context.Background(), r)
	s.end()
	if err != nil {
		return expected{}, err
	}
	if sp.t != nil {
		s = sp.sibling("core.encode")
		err := encode(io.Discard, r, sched)
		s.end()
		if err != nil {
			return expected{}, err
		}
	}
	h := sha256.New()
	n := &countingWriter{}
	if err := encode(io.MultiWriter(h, n), r, sched); err != nil {
		return expected{}, err
	}
	return expected{flows: len(sched), bytes: n.n, digest: hex.EncodeToString(h.Sum(nil))}, nil
}

// generate runs the request's generation in process, as the server's
// handler does, and returns the whole schedule.
func (b *serveBench) generate(ctx context.Context, r serveRequest) ([]core.SynthFlow, error) {
	var sched []core.SynthFlow
	emit := func(c []core.SynthFlow) error { sched = append(sched, c...); return nil }
	if r.gen != nil {
		return sched, b.model.GenerateChunks(ctx, *r.gen, serveChunk, emit)
	}
	return sched, b.model.GenerateMixChunks(ctx, *r.mix, serveChunk, emit)
}

// encode writes sched in the request's format, chunk by chunk.
func encode(w io.Writer, r serveRequest, sched []core.SynthFlow) error {
	workers := 16
	if r.gen != nil && r.gen.Workers > 0 {
		workers = r.gen.Workers
	} else if r.mix != nil && r.mix.Workers > 0 {
		workers = r.mix.Workers
	}
	enc, err := core.NewStreamEncoder(r.format, w, workers)
	if err != nil {
		return err
	}
	if err := enc.Begin(); err != nil {
		return err
	}
	for len(sched) > 0 {
		n := min(serveChunk, len(sched))
		if err := enc.Flows(sched[:n]); err != nil {
			return err
		}
		sched = sched[n:]
	}
	return enc.End()
}

// request builds op i's request from the op's seed: every
// serveMixEvery-th op is a mix, and formats rotate.
func (b *serveBench) request(i int) serveRequest {
	s := opSeed(b.seed, i)
	r := serveRequest{format: serveFormats[i%len(serveFormats)]}
	if i%serveMixEvery != serveMixEvery-1 {
		r.gen = &core.GenSpec{Workload: "terasort", InputBytes: 8 << 30, Workers: 64, Jobs: 4, Seed: s}
		return r
	}
	weights := map[string]float64{}
	for k, w := range b.model.WorkloadNames() {
		weights[w] = float64(1 + (uint64(s)>>(8*k))%3)
	}
	r.mix = &core.MixSpec{Weights: weights, JobsPerMinute: 6, WindowSecs: 60, Workers: 64, Seed: s}
	return r
}

func (b *serveBench) op(i int, sp spanRef) opResult {
	r := b.request(i)
	ttfb, got, status, err := b.send(r)
	return opResult{
		ttfb:  ttfb,
		flows: int64(got.flows),
		err:   err,
		finish: func() (string, int64, error) {
			if status != http.StatusOK {
				return "", 0, fmt.Errorf("status %d", status)
			}
			want, err := b.expect(r, sp)
			if err != nil {
				return "", 0, err
			}
			if got != want {
				return "", 0, fmt.Errorf("%s stream has %d flows, %d bytes (digest %.16s); in-process generate gives %d, %d (%.16s)",
					r.format, got.flows, got.bytes, got.digest, want.flows, want.bytes, want.digest)
			}
			return "stream=" + got.digest[:16], got.bytes, nil
		},
	}
}

// send issues the request and reads the body to its last byte, hashing
// it and counting its flow records. ttfb is the time to the first body
// byte.
func (b *serveBench) send(r serveRequest) (ttfb time.Duration, got expected, status int, err error) {
	var req *http.Request
	start := time.Now()
	if r.gen != nil {
		g := r.gen
		q := url.Values{
			"model": {serveModel}, "format": {r.format}, "workload": {g.Workload},
			"workers": {strconv.Itoa(g.Workers)}, "seed": {strconv.FormatInt(g.Seed, 10)},
		}
		if g.InputBytes > 0 {
			q.Set("inputBytes", strconv.FormatInt(g.InputBytes, 10))
		}
		if g.Jobs > 0 {
			q.Set("jobs", strconv.Itoa(g.Jobs))
		}
		req, err = http.NewRequest(http.MethodGet, b.http.URL+"/v1/generate?"+q.Encode(), nil)
	} else {
		var body []byte
		body, err = json.Marshal(map[string]any{"model": serveModel, "format": r.format, "spec": r.mix})
		if err == nil {
			req, err = http.NewRequest(http.MethodPost, b.http.URL+"/v1/mix", bytes.NewReader(body))
		}
	}
	if err != nil {
		return 0, got, 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, got, 0, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	bp := b.bufs.Get().(*[]byte)
	defer b.bufs.Put(bp)
	buf := *bp
	var lines int
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if got.bytes == 0 {
				ttfb = time.Since(start)
			}
			got.bytes += int64(n)
			lines += bytes.Count(buf[:n], []byte{'\n'})
			h.Write(buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return ttfb, got, resp.StatusCode, rerr
		}
	}
	// Header lines: csv has one, ns3 two ("# keddah-ns3 v1", "nodes N").
	got.flows = lines - map[string]int{"jsonl": 0, "csv": 1, "ns3": 2}[r.format]
	got.digest = hex.EncodeToString(h.Sum(nil))
	return ttfb, got, resp.StatusCode, nil
}

func (b *serveBench) layers(m map[string]float64) {
	sv := b.tel.Serve
	streams := float64(max(sv.Streams.Value(), 1))
	m["serve.queue_depth_max"] = sv.QueueDepthMax.Value()
	m["serve.active_max"] = sv.ActiveMax.Value()
	m["serve.shed"] = float64(sv.Shed.Value())
	m["serve.flows_streamed"] = float64(sv.FlowsStreamed.Value()) / streams
	m["serve.bytes_streamed"] = float64(sv.BytesStreamed.Value()) / streams
	m["serve.self_ms"] = m["op_ms"] - m["core.generate_ms"] - m["core.encode_ms"]
}

func (b *serveBench) close() error {
	if b.http != nil {
		b.http.Close()
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	return os.RemoveAll(b.dir)
}
