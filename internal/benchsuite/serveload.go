package benchsuite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"

	"mmwalign/internal/obs"
	"mmwalign/internal/serve"
)

// The serve workload drives the alignment server end-to-end over real
// HTTP: pooled session lease, covariance estimation, whole-codebook
// scoring, JSON encode — under the same bounded-queue admission control
// cmd/beamserve runs with.
const (
	// serveLoadBurst is the number of requests in one burst;
	// serveLoadWorkers is the client-side concurrency. The queue depth
	// below is sized so the burst saturates the execution slots without
	// tripping 503 backpressure — this workload measures the served
	// path, not the rejection path.
	serveLoadBurst   = 16
	serveLoadWorkers = 8
)

// serveLoadBody builds the canonical load request: a 4×4 panel with a
// 16-beam codebook and a peaked 12-observation window — small enough to
// keep one request in the low milliseconds, large enough that the
// estimator and scorer dominate over HTTP overhead.
func serveLoadBody() []byte {
	type observation struct {
		Beam   int     `json:"beam"`
		Energy float64 `json:"energy"`
	}
	window := make([]observation, 0, 12)
	for j := 0; j < 12; j++ {
		d := float64(j - 5)
		window = append(window, observation{Beam: j, Energy: 1 + 8/(1+d*d)})
	}
	body, err := json.Marshal(map[string]any{
		"panel_x":      4,
		"panel_z":      4,
		"beams_az":     4,
		"beams_el":     4,
		"max_iters":    10,
		"top_k":        4,
		"observations": window,
	})
	if err != nil {
		panic(err) // fixture construction is deterministic; cannot fail
	}
	return body
}

// ServeOp fires one 16-request /v1/estimate burst from 8 client workers
// at a fresh 4-slot server and waits for every response. Its solver
// counters are the server's /statsz totals, and its metric is the best
// beam's score, best_score. A rejected response, a degraded estimate,
// or two responses that differ is an error: serving is deterministic,
// so every request must get the same full-quality body.
func ServeOp() Op { return whole(serveBurst) }

func serveBurst() (Sample, error) {
	srv := serve.NewServer(serve.Config{
		MaxConcurrent: 4,
		// Deep enough that a full burst queues instead of bouncing.
		QueueDepth: serveLoadBurst,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	body := serveLoadBody()

	var (
		wg     sync.WaitGroup
		work   = make(chan int, serveLoadBurst)
		bodies = make([][]byte, serveLoadBurst)
		errs   = make([]error, serveLoadBurst)
	)
	for i := 0; i < serveLoadBurst; i++ {
		work <- i
	}
	close(work)
	for w := 0; w < serveLoadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				bodies[i], errs[i] = fetch(client, http.MethodPost, ts.URL+"/v1/estimate", body)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return Sample{}, err
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			return Sample{}, fmt.Errorf("serve burst: response %d differs from response 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	var resp struct {
		Estimate struct {
			Degraded bool `json:"degraded"`
		} `json:"estimate"`
		Picks struct {
			Best struct {
				Score float64 `json:"score"`
			} `json:"best"`
		} `json:"picks"`
	}
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		return Sample{}, err
	}
	if resp.Estimate.Degraded {
		return Sample{}, fmt.Errorf("serve burst: degraded estimate: %s", bodies[0])
	}

	raw, err := fetch(client, http.MethodGet, ts.URL+"/statsz", nil)
	if err != nil {
		return Sample{}, err
	}
	var stats struct {
		Solver obs.SolverStats `json:"solver"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		return Sample{}, err
	}
	return Sample{Solver: stats.Solver, Metrics: map[string]float64{"best_score": resp.Picks.Best.Score}}, nil
}

// fetch issues one request and returns the body, failing on any
// non-200 status.
func fetch(client *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve burst: %s %s: status %d: %s", method, url, res.StatusCode, data)
	}
	return data, nil
}
