package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ixplens/internal/obs"
	"ixplens/internal/vfs"
)

// churnServer opens a fresh store over dir and serves it with a cache
// smaller than the campaign, so a series computed twice would have to
// load weeks again.
func churnServer(t *testing.T, dir string) (*Server, *obs.Registry) {
	t.Helper()
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(store, Config{CacheWeeks: 2}, reg)
	t.Cleanup(s.Close)
	return s, reg
}

// weekLoads is how many weeks the store materialized, from snapshot or
// by analysis.
func weekLoads(reg *obs.Registry) uint64 {
	c := reg.Counters()
	return c["serve_snapshot_loads_total"] + c["serve_analyses_total"]
}

func getChurn(t *testing.T, s *Server, ctx context.Context) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/churn", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestChurnComputedOncePerServer: N sequential and N concurrent /churn
// requests each load every week once per server and all see the same
// bytes.
func TestChurnComputedOncePerServer(t *testing.T) {
	const weeks, n = 5, 6
	dir := campaign(t, weeks, 1500)

	seq, seqReg := churnServer(t, dir)
	var want []byte
	for i := 0; i < n; i++ {
		code, body := getChurn(t, seq, context.Background())
		if code != http.StatusOK {
			t.Fatalf("sequential request %d: %d %s", i, code, body)
		}
		if i == 0 {
			want = body
		} else if !bytes.Equal(body, want) {
			t.Fatalf("sequential request %d served different bytes", i)
		}
	}
	if got := weekLoads(seqReg); got != weeks {
		t.Fatalf("%d sequential requests loaded %d weeks, want %d", n, got, weeks)
	}

	conc, concReg := churnServer(t, dir)
	ts := httptest.NewServer(conc)
	defer ts.Close()
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/churn")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Fatalf("concurrent client %d served different bytes", i)
		}
	}
	if got := weekLoads(concReg); got != weeks {
		t.Fatalf("%d concurrent requests loaded %d weeks, want %d", n, got, weeks)
	}
	if c := concReg.Counters()["serve_churn_computations_total"]; c != 1 {
		t.Fatalf("%d churn computations, want 1", c)
	}
}

// cancelFS cancels a context when the store tries its nth snapshot
// open, i.e. while the churn series is part way through its weeks.
type cancelFS struct {
	vfs.FS
	opens  *atomic.Int64
	nth    int64
	cancel context.CancelFunc
}

func (c cancelFS) Open(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".snap") && c.opens.Add(1) == c.nth {
		c.cancel()
	}
	return c.FS.Open(name)
}

// TestChurnCancelledStoresNothing: a request cancelled mid-series fails
// and leaves no stored series; the next request computes it afresh and
// serves the same bytes a clean server does.
func TestChurnCancelledStoresNothing(t *testing.T) {
	dir := campaign(t, 5, 1500)
	ref, _ := churnServer(t, dir)
	_, want := getChurn(t, ref, context.Background())

	s, reg := churnServer(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.store.Env().FS = cancelFS{FS: vfs.OS{}, opens: new(atomic.Int64), nth: 3, cancel: cancel}

	if code, body := getChurn(t, s, ctx); code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request answered %d %s, want 503", code, body)
	}
	if s.churn.body.Load() != nil {
		t.Fatal("a cancelled computation stored a series")
	}
	code, body := getChurn(t, s, context.Background())
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("retry answered %d with different bytes", code)
	}
	if c := reg.Counters()["serve_churn_computations_total"]; c != 2 {
		t.Fatalf("%d churn computations, want 2 (the cancelled one and its retry)", c)
	}
	if s.churn.body.Load() == nil {
		t.Fatal("the successful retry stored nothing")
	}
}

// TestChurnMemoWaiterHonoursContext: a request waiting on another's
// computation gives up when its own context ends, computes nothing,
// and a failed computation is not stored.
func TestChurnMemoWaiterHonoursContext(t *testing.T) {
	m := newChurnMemo()
	m.token <- struct{}{} // another request is computing
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	called := false
	_, err := m.get(ctx, func(context.Context) ([]byte, error) { called = true; return nil, nil })
	if !errors.Is(err, context.DeadlineExceeded) || called {
		t.Fatalf("waiter: err %v, computed %v", err, called)
	}
	<-m.token

	boom := errors.New("boom")
	if _, err := m.get(context.Background(), func(context.Context) ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("failed computation: %v", err)
	}
	if m.body.Load() != nil {
		t.Fatal("a failed computation was stored")
	}
	body, err := m.get(context.Background(), func(context.Context) ([]byte, error) { return []byte("ok\n"), nil })
	if err != nil || string(body) != "ok\n" {
		t.Fatalf("recompute: %q, %v", body, err)
	}
	if body, _ := m.get(context.Background(), func(context.Context) ([]byte, error) { return nil, boom }); string(body) != "ok\n" {
		t.Fatal("a stored series was recomputed")
	}
}
