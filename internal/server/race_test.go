package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/smtlib"
)

// TestServerConcurrentMixedLoad hammers a deliberately undersized
// server with concurrent clients mixing duplicate (cache-hitting)
// problems, tight timeouts, mid-flight cancellations, and malformed
// requests. Run under -race (ci.sh does); the assertions here are
// sanity — the real check is the race detector over the admission
// gate, the cache, and the merged stats tree.
func TestServerConcurrentMixedLoad(t *testing.T) {
	before := fault.Snapshot()
	s := New(Config{Workers: 2, QueueDepth: 2, CacheEntries: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	easy := []string{
		`(declare-fun a () String)(assert (= (str.len a) 2))(check-sat)`,
		`(declare-fun b () String)(declare-fun n () Int)(assert (= n (str.to_int b)))(assert (= n 7))(check-sat)`,
		`(declare-fun c () String)(assert (= c "x"))(assert (= (str.len c) 2))(check-sat)`, // unsat
	}
	hard, err := smtlib.Write(bench.Luhn(8).Build())
	if err != nil {
		t.Fatalf("writing luhn: %v", err)
	}

	post := func(ctx context.Context, req solveRequest) (int, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		hr, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/solve", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var decoded solveResponse
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			return resp.StatusCode, fmt.Errorf("decode: %w", err)
		}
		return resp.StatusCode, nil
	}

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (c + i) % 5 {
				case 0, 1: // duplicate easy problems: cold once, then cache hits
					code, err := post(context.Background(), solveRequest{SMTLIB: easy[i%len(easy)]})
					if err != nil {
						errs <- err
					} else if code != 200 && code != 503 {
						errs <- fmt.Errorf("easy solve: status %d", code)
					}
				case 2: // tight deadline on a hard problem
					code, err := post(context.Background(), solveRequest{SMTLIB: hard, TimeoutMS: 20})
					if err != nil {
						errs <- err
					} else if code != 200 && code != 503 {
						errs <- fmt.Errorf("timeout solve: status %d", code)
					}
				case 3: // client cancels mid-flight
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
					_, err := post(ctx, solveRequest{SMTLIB: hard, NoCache: true})
					cancel()
					if err == nil {
						// The server may still answer inside 10ms; fine.
						continue
					}
					if ctx.Err() == nil {
						errs <- fmt.Errorf("cancelled solve: %v", err)
					}
				case 4: // malformed input must never disturb the pool
					code, err := post(context.Background(), solveRequest{SMTLIB: "(assert (="})
					if err != nil {
						errs <- err
					} else if code != 400 && code != 503 {
						errs <- fmt.Errorf("parse error: status %d", code)
					}
				}
			}
		}()
	}
	// Concurrent observers over the stats endpoints while solving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/stats", "/metrics", "/healthz"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					continue
				}
				_ = resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after load: %v", err)
	}
	// Workers and FromContext watchers must all be gone.
	fault.CheckLeaks(t, before)
}
