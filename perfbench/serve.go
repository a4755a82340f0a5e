package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"penelope/internal/service"
	"penelope/internal/store"
)

const (
	// pollInterval spaces a client's status polls while its job runs.
	pollInterval = 2 * time.Millisecond
	// jobTimeout fails a request that has not produced its result.
	jobTimeout = 60 * time.Second
)

// liveServer is an in-process service.Server behind a loopback HTTP
// listener.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

// startServer boots a server over dir with the history sampler and the
// store scrubber off, so no background work competes with the load. A
// queueDepth of 0 keeps the service default.
func startServer(dir string, queueDepth int) (*liveServer, error) {
	srv, err := service.New(service.Config{DataDir: dir, HistoryInterval: -1, QueueDepth: queueDepth})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the listener (cutting open streams), waits for the serve
// loop to return, then shuts the server down.
func (ls *liveServer) close() {
	ls.hs.Close()
	<-ls.served
	ls.srv.Close()
}

// client is one closed-loop load generator with its own client id.
type client struct {
	id   string
	base string
	http *http.Client
	tr   *Tracer
}

func newClients(base string, n int, tr *Tracer) []*client {
	transport := &http.Transport{MaxIdleConnsPerHost: n + 2}
	hc := &http.Client{Transport: transport, Timeout: jobTimeout}
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{id: fmt.Sprintf("bench-%d", i), base: base, http: hc, tr: tr}
	}
	return out
}

// call makes one HTTP request, traced under the route's pattern.
func (c *client) call(parent *Open, method, route, path string, body []byte) (int, []byte, error) {
	sp := c.tr.Start(parent, "", "service", route)
	defer sp.End()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Client-Id", c.id)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobView is the part of a job snapshot the client reads.
type jobView struct {
	ID        string `json:"id"`
	ResultKey string `json:"result_key"`
	State     string `json:"state"`
	CacheHit  bool   `json:"cache_hit"`
	Error     string `json:"error"`
}

// outcome is one completed request of the script.
type outcome struct {
	job     jobView
	payload []byte
	latency time.Duration
	polls   int
	err     error
}

// submit runs one job submit→result: POST the job, poll its status
// until it is done, then fetch the result payload.
func (c *client) submit(r Request) outcome {
	sp := c.tr.Start(nil, "", "service", "job:"+r.Phase)
	defer sp.End()
	start := time.Now()
	body, err := json.Marshal(map[string]any{"experiment": r.Experiment, "options": r.Options})
	if err != nil {
		return outcome{err: err}
	}
	status, b, err := c.call(sp, http.MethodPost, "POST /v1/jobs", "/v1/jobs", body)
	out := c.await(sp, start, status, b, err)
	sp.Attr("job", out.job.ID)
	return out
}

// await takes a job snapshot response (status, body, err), polls the
// job until it is done, and fetches its result payload.
func (c *client) await(sp *Open, start time.Time, status int, b []byte, err error) outcome {
	var out outcome
	for {
		if err == nil && (status < 200 || status > 299) {
			err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(b))
		}
		if err == nil {
			err = json.Unmarshal(b, &out.job)
		}
		if err == nil && out.job.State == "failed" {
			err = fmt.Errorf("job %s failed: %s", out.job.ID, out.job.Error)
		}
		if err != nil || out.job.State == "done" {
			break
		}
		if time.Since(start) > jobTimeout {
			err = fmt.Errorf("job %s timed out in state %s", out.job.ID, out.job.State)
			break
		}
		time.Sleep(pollInterval)
		out.polls++
		status, b, err = c.call(sp, http.MethodGet, "GET /v1/jobs/{id}", "/v1/jobs/"+out.job.ID, nil)
	}
	if err == nil {
		status, out.payload, err = c.call(sp, http.MethodGet, "GET /v1/results/{key}", "/v1/results/"+out.job.ResultKey, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("result %s: HTTP %d", out.job.ResultKey, status)
		}
	}
	out.latency = time.Since(start)
	out.err = err
	return out
}

// runPhase splits reqs between the clients round-robin; each client
// sends its next request only after the previous one completed. It
// returns the outcomes in request order once every client is done.
func runPhase(clients []*client, reqs []Request) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += len(clients) {
				out[i] = clients[c].submit(reqs[i])
			}
		}(c)
	}
	wg.Wait()
	return out
}

// serveRep runs the serve-mix script. Set-up seeds the store-hit corpus
// through a first server, then boots the measured server over the same
// data dir. The measured part is three phases: cold misses, memory hits
// on the completed miss keys, and store hits — the first submission
// after boot of every corpus key.
func serveRep(seed uint64, dir string, tr *Tracer) RepResult {
	var r RepResult
	script := NewServeScript(seed)
	nclients := runtime.GOMAXPROCS(0)

	sw := startWatch()
	corpus, err := seedCorpus(dir, script.CorpusLengths, nclients)
	if err != nil {
		r.fail("seeding the store-hit corpus: %v", err)
		return r
	}
	srv, err := startServer(dir, 0)
	if err != nil {
		r.fail("booting measured server: %v", err)
		return r
	}
	r.SetupS, r.SetupRawS = sw.read()

	// wall_s is the sum of the phases; the collections between them
	// are off the clock.
	clients := newClients(srv.base, nclients, tr)
	results := make([][]outcome, len(script.Phases))
	for p, reqs := range script.Phases {
		settle()
		sw := startWatch()
		results[p] = runPhase(clients, reqs)
		net, raw := sw.read()
		r.WallS += net
		r.WallRawS += raw
	}

	missPayload := map[string][]byte{}
	lat := map[string][]float64{}
	var missJobs []string
	polls := 0
	for p, outs := range results {
		for i, o := range outs {
			req := script.Phases[p][i]
			r.Attempted++
			want, wantHit := []byte(nil), true
			switch req.Phase {
			case phaseMiss:
				wantHit = false
			case phaseHit:
				want = missPayload[o.job.ResultKey]
			case phaseStoreHit:
				want = corpus[o.job.ResultKey]
			}
			switch {
			case o.err != nil:
				r.fail("%s %s %+v: %v", req.Phase, req.Experiment, req.Options, o.err)
				continue
			case o.job.CacheHit != wantHit:
				r.fail("%s %s: cache_hit = %v", req.Phase, o.job.ResultKey, o.job.CacheHit)
				continue
			case wantHit && !bytes.Equal(o.payload, want):
				r.fail("%s %s: payload differs from the key's miss payload", req.Phase, o.job.ResultKey)
				continue
			}
			if req.Phase == phaseMiss {
				missPayload[o.job.ResultKey] = o.payload
				missJobs = append(missJobs, o.job.ID)
				polls += o.polls
			}
			lat[req.Phase] = append(lat[req.Phase], ms(o.latency))
		}
	}
	// The operation is the memory hit: the cached submit→result a
	// returning user gets. Misses dominate wall_s; store hits are
	// reported as detail.
	r.OpMS = lat[phaseHit]
	r.Detail = map[string]float64{
		"miss_p50_ms":      median(lat[phaseMiss]),
		"hit_p50_ms":       median(lat[phaseHit]),
		"store_hit_p50_ms": median(lat[phaseStoreHit]),
		"jobs_per_s":       float64(script.Size()) / r.WallRawS,
	}
	if tr != nil {
		r.Layer = map[string]float64{
			"service.miss_p50_ms":      r.Detail["miss_p50_ms"],
			"service.hit_p50_ms":       r.Detail["hit_p50_ms"],
			"service.store_hit_p50_ms": r.Detail["store_hit_p50_ms"],
			"service.jobs_per_s":       r.Detail["jobs_per_s"],
			"service.polls_per_miss":   float64(polls) / float64(len(missJobs)),
			"service.submit_ms":        median(tr.Durations("service", "POST /v1/jobs")),
			"service.status_ms":        median(tr.Durations("service", "GET /v1/jobs/{id}")),
			"service.result_ms":        median(tr.Durations("service", "GET /v1/results/{key}")),
		}
		for _, ph := range []string{phaseMiss, phaseHit, phaseStoreHit} {
			r.Layer["service."+ph+"_p99_ms"] = quantile(lat[ph], 0.99)
			r.Layer["service."+ph+"_n"] = float64(len(lat[ph]))
		}
		// Server-side spans of every miss, read off the clock.
		spans := map[string][]float64{}
		for _, id := range missJobs {
			status, b, err := clients[0].call(nil, http.MethodGet, "GET /v1/jobs/{id}/trace", "/v1/jobs/"+id+"/trace", nil)
			var snap struct {
				Spans []struct {
					Name       string `json:"name"`
					DurationNS int64  `json:"duration_ns"`
				} `json:"spans"`
			}
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(b, &snap)
			} else if err == nil {
				err = fmt.Errorf("HTTP %d", status)
			}
			if err != nil {
				r.fail("trace of %s: %v", id, err)
				continue
			}
			for _, s := range snap.Spans {
				spans[s.Name] = append(spans[s.Name], ms(time.Duration(s.DurationNS)))
				tr.Record(id, "service", "server:"+s.Name, time.Now(), time.Duration(s.DurationNS), nil)
			}
		}
		r.Layer["service.queue_wait_ms"] = median(spans["queue-wait"])
		r.Layer["service.run_ms"] = median(spans["run"])
		r.Layer["service.store_write_ms"] = median(spans["store-write"])
	}
	srv.close()

	if tr != nil {
		sp := tr.Start(nil, "", "store", "Open")
		t := time.Now()
		st, err := store.Open(dir)
		d := time.Since(t)
		sp.End()
		if err != nil {
			r.fail("reopening store: %v", err)
		} else {
			st.Close()
			r.Layer["store.open_s"] = d.Seconds()
		}
	}
	return r
}

// seedCorpus runs the corpus as one sweep on a set-up server over dir,
// fetches every result, and shuts the server down, leaving the results
// persisted in dir. It returns the payloads by result key.
func seedCorpus(dir string, lengths []int, nclients int) (map[string][]byte, error) {
	// The whole grid is queued at once, so the queue must hold it.
	srv, err := startServer(dir, 2*len(lengths)*len(corpusExperiments))
	if err != nil {
		return nil, err
	}
	defer srv.close()
	clients := newClients(srv.base, nclients, nil)
	body, err := json.Marshal(map[string]any{"experiments": corpusExperiments,
		"trace_lengths": lengths, "trace_strides": []int{corpusStride}})
	if err != nil {
		return nil, err
	}
	status, b, err := clients[0].call(nil, http.MethodPost, "POST /v1/sweeps", "/v1/sweeps", body)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(b))
	}
	var sweep struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err == nil {
		err = json.Unmarshal(b, &sweep)
	}
	if err != nil {
		return nil, fmt.Errorf("submitting the corpus sweep: %w", err)
	}
	// Wait for the whole grid with a light listing poll, so waiting
	// clients do not compete with the workers for the CPUs.
	deadline := time.Now().Add(jobTimeout)
	for done := 0; done < len(sweep.Jobs); {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("corpus sweep: %d of %d jobs done after %s", done, len(sweep.Jobs), jobTimeout)
		}
		time.Sleep(10 * time.Millisecond)
		if done, err = clients[0].countJobs("done"); err != nil {
			return nil, err
		}
	}
	if failed, err := clients[0].countJobs("failed"); err != nil || failed > 0 {
		return nil, fmt.Errorf("corpus sweep: %d jobs failed (%v)", failed, err)
	}
	outs := make([]outcome, len(sweep.Jobs))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(outs); i += len(clients) {
				outs[i] = clients[c].await(nil, time.Now(), http.StatusAccepted, sweep.Jobs[i], nil)
			}
		}(c)
	}
	wg.Wait()
	corpus := make(map[string][]byte, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		corpus[o.job.ResultKey] = o.payload
	}
	if want := len(lengths) * len(corpusExperiments); len(corpus) != want {
		return nil, fmt.Errorf("corpus has %d results, want %d", len(corpus), want)
	}
	return corpus, nil
}

// countJobs returns how many of the client's jobs are in state.
func (c *client) countJobs(state string) (int, error) {
	status, b, err := c.call(nil, http.MethodGet, "GET /v1/jobs", "/v1/jobs?limit=1&client="+c.id+"&state="+state, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("listing jobs: HTTP %d", status)
	}
	var list struct {
		Total int `json:"total"`
	}
	if err == nil {
		err = json.Unmarshal(b, &list)
	}
	return list.Total, err
}

// errStreamEnded reports an event stream that closed before its fleet
// finished.
var errStreamEnded = errors.New("event stream ended before the fleet finished")

// streamEvents reads an NDJSON event stream, handing each event to fn
// until fn returns false or ctx ends.
func (c *client) streamEvents(ctx context.Context, path string, fn func(ev streamEvent) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Client-Id", c.id)
	resp, err := (&http.Client{Transport: c.http.Transport}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev streamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return errStreamEnded
			}
			return err
		}
		if !fn(ev) {
			return nil
		}
	}
}

// streamEvent is one fleet bus event as the NDJSON stream carries it.
type streamEvent struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Time time.Time       `json:"time"`
	Data json.RawMessage `json:"data"`
}
