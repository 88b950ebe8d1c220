package fabric

import (
	"context"
	"errors"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scalefold"
	"repro/internal/store"
)

// clock is a hand-driven time source: with Config.Now set, the coordinator
// runs no background expiry loop, so tests control loss detection completely.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testCoordinator(t *testing.T, cfg Config, st store.Store[cluster.Result]) (*Coordinator, *clock) {
	t.Helper()
	ck := &clock{t: time.Unix(1000, 0)}
	cfg.Now = ck.now
	c := NewCoordinator(cfg, st)
	t.Cleanup(c.Close)
	return c, ck
}

// execute dispatches cfg on a goroutine and returns a channel carrying the
// outcome, plus a wait for the task to be queued.
func execute(c *Coordinator, ctx context.Context, cfg scalefold.StepConfig) <-chan struct {
	res cluster.Result
	err error
} {
	ch := make(chan struct {
		res cluster.Result
		err error
	}, 1)
	go func() {
		r, err := c.Execute(ctx, cfg)
		ch <- struct {
			res cluster.Result
			err error
		}{r, err}
	}()
	return ch
}

func waitPending(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fs := c.Fleet(); fs.Pending == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d pending cells: %+v", n, c.Fleet())
}

func TestCoordinatorSingleflightAndStoreFastPath(t *testing.T) {
	st := store.NewMem[cluster.Result]()
	c, _ := testCoordinator(t, Config{}, st)
	cfg := scalefold.ReferenceConfig("H100", 32)
	want := cluster.Result{Goodput: 0.5, MedianStep: time.Second}

	// Two concurrent dispatches of the same fingerprint share one task.
	a := execute(c, context.Background(), cfg)
	b := execute(c, context.Background(), cfg)
	waitPending(t, c, 1)

	reg, err := c.RegisterWorker("w")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := c.Claim(context.Background(), reg.WorkerID, 0, 0)
	if err != nil || len(cells) != 1 {
		t.Fatalf("Claim = %v, %v; want the one deduplicated cell", cells, err)
	}
	if cells[0].Key != cfg.Fingerprint() {
		t.Fatalf("claimed key %q, want %q", cells[0].Key, cfg.Fingerprint())
	}
	if resp := c.Complete(reg.WorkerID, cells[0].Key, want, ""); !resp.Accepted {
		t.Fatalf("Complete rejected: %+v", resp)
	}
	for _, ch := range []<-chan struct {
		res cluster.Result
		err error
	}{a, b} {
		out := <-ch
		if out.err != nil || out.res != want {
			t.Fatalf("Execute = %+v, %v; want shared result", out.res, out.err)
		}
	}
	if got, ok := st.Get(cfg.Fingerprint()); !ok || got != want {
		t.Fatalf("store after settle = %+v, %v", got, ok)
	}

	// A settled fingerprint is served from the store without dispatch.
	out := <-execute(c, context.Background(), cfg)
	if out.err != nil || out.res != want {
		t.Fatalf("store fast path = %+v, %v", out.res, out.err)
	}
	if fs := c.Fleet(); fs.Pending != 0 || fs.Completed != 1 {
		t.Fatalf("fleet after fast path: %+v (want no new dispatch)", fs)
	}
}

func TestCoordinatorRetryBudgetExhaustion(t *testing.T) {
	c, _ := testCoordinator(t, Config{MaxRetries: 1}, nil)
	cfg := scalefold.ReferenceConfig("H100", 32)
	outc := execute(c, context.Background(), cfg)
	waitPending(t, c, 1)
	reg, err := c.RegisterWorker("flaky")
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		cells, err := c.Claim(context.Background(), reg.WorkerID, 0, 0)
		if err != nil || len(cells) != 1 {
			t.Fatalf("attempt %d: Claim = %v, %v", attempt, cells, err)
		}
		resp := c.Complete(reg.WorkerID, cells[0].Key, cluster.Result{}, "boom")
		if !resp.Accepted {
			t.Fatalf("attempt %d: worker-error complete must be accepted (as a requeue): %+v", attempt, resp)
		}
	}
	out := <-outc
	if out.err == nil || !strings.Contains(out.err.Error(), "retry budget exhausted") {
		t.Fatalf("Execute err = %v; want retry exhaustion", out.err)
	}
	if fs := c.Fleet(); fs.Reassigned != 1 || fs.Completed != 0 {
		t.Fatalf("fleet after exhaustion: %+v", fs)
	}
}

func TestCoordinatorExpiryReassignsAndRejectsLateCompletes(t *testing.T) {
	cfg := Config{HeartbeatInterval: time.Second, HeartbeatTimeout: 3 * time.Second}
	c, ck := testCoordinator(t, cfg, store.NewMem[cluster.Result]())
	step := scalefold.ReferenceConfig("H100", 32)
	want := cluster.Result{Goodput: 0.7, MedianStep: 2 * time.Second}
	outc := execute(c, context.Background(), step)
	waitPending(t, c, 1)

	w1, err := c.RegisterWorker("doomed")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := c.Claim(context.Background(), w1.WorkerID, 0, 0)
	if err != nil || len(cells) != 1 {
		t.Fatalf("Claim = %v, %v", cells, err)
	}
	key := cells[0].Key

	// Silence past the timeout: the worker is lost, its cell requeued.
	ck.advance(cfg.HeartbeatTimeout + time.Second)
	c.ExpireNow()
	if fs := c.Fleet(); fs.Lost != 1 || fs.Pending != 1 || fs.Reassigned != 1 {
		t.Fatalf("fleet after expiry: %+v", fs)
	}
	if err := c.Heartbeat(w1.WorkerID); err != ErrUnknownWorker {
		t.Fatalf("heartbeat from expired worker = %v, want ErrUnknownWorker", err)
	}

	w2, err := c.RegisterWorker("successor")
	if err != nil {
		t.Fatal(err)
	}
	if cells, err = c.Claim(context.Background(), w2.WorkerID, 0, 0); err != nil || len(cells) != 1 || cells[0].Key != key {
		t.Fatalf("reassigned claim = %v, %v", cells, err)
	}

	// The dead worker's late complete is rejected idempotently: twice the
	// same answer, nothing mutated.
	r1 := c.Complete(w1.WorkerID, key, cluster.Result{Goodput: 9}, "")
	r2 := c.Complete(w1.WorkerID, key, cluster.Result{Goodput: 9}, "")
	if r1.Accepted || r2.Accepted || r1 != r2 {
		t.Fatalf("late completes = %+v / %+v; want identical rejections", r1, r2)
	}

	if resp := c.Complete(w2.WorkerID, key, want, ""); !resp.Accepted {
		t.Fatalf("successor complete rejected: %+v", resp)
	}
	if out := <-outc; out.err != nil || out.res != want {
		t.Fatalf("Execute = %+v, %v; want the successor's result", out.res, out.err)
	}
	// After settlement the same stale complete flips to "already settled" —
	// still rejected, still mutating nothing.
	if resp := c.Complete(w2.WorkerID, key, want, ""); resp.Accepted {
		t.Fatalf("post-settle complete must be rejected: %+v", resp)
	}
	if fs := c.Fleet(); fs.Rejected != 3 || fs.Completed != 1 {
		t.Fatalf("fleet counters: %+v", fs)
	}
}

func TestCoordinatorExecuteCancelWithdrawsUnclaimedCell(t *testing.T) {
	c, _ := testCoordinator(t, Config{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	outc := execute(c, ctx, scalefold.ReferenceConfig("H100", 32))
	waitPending(t, c, 1)
	cancel()
	if out := <-outc; out.err != context.Canceled {
		t.Fatalf("Execute err = %v, want context.Canceled", out.err)
	}
	if fs := c.Fleet(); fs.Pending != 0 {
		t.Fatalf("cancelled unclaimed cell must leave the queue: %+v", fs)
	}
}

func TestCoordinatorCloseFailsOutstandingDispatch(t *testing.T) {
	ck := &clock{t: time.Unix(1000, 0)}
	c := NewCoordinator(Config{Now: ck.now}, nil)
	outc := execute(c, context.Background(), scalefold.ReferenceConfig("H100", 32))
	waitPending(t, c, 1)
	c.Close()
	if out := <-outc; out.err != ErrClosed {
		t.Fatalf("Execute err after Close = %v, want ErrClosed", out.err)
	}
	if _, err := c.RegisterWorker("late"); err != ErrClosed {
		t.Fatalf("RegisterWorker after Close = %v, want ErrClosed", err)
	}
}

func TestRendezvousPartitioningIsStable(t *testing.T) {
	c, _ := testCoordinator(t, Config{BatchSize: 64}, nil)
	var ids []string
	for _, name := range []string{"a", "b", "c"} {
		reg, err := c.RegisterWorker(name)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, reg.WorkerID)
	}
	keys := []string{"v4:alpha", "v4:beta", "v4:gamma", "v4:delta", "v4:epsilon"}
	first := map[string]string{}
	for _, k := range keys {
		first[k] = c.homeLocked(k)
	}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			if got := c.homeLocked(k); got != first[k] {
				t.Fatalf("home of %q moved %q -> %q with a steady fleet", k, first[k], got)
			}
		}
	}
	homes := map[string]bool{}
	for _, k := range keys {
		homes[first[k]] = true
	}
	if len(homes) < 2 {
		t.Fatalf("5 keys all homed on one of 3 workers: %v (suspicious hash)", first)
	}
	for _, id := range ids {
		if _, err := c.Claim(context.Background(), id, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

type claimOut struct {
	cells []Cell
	err   error
}

// claimAsync runs a long-poll claim on a goroutine.
func claimAsync(c *Coordinator, ctx context.Context, workerID string, wait time.Duration) <-chan claimOut {
	ch := make(chan claimOut, 1)
	go func() {
		cells, err := c.Claim(ctx, workerID, 0, wait)
		ch <- claimOut{cells, err}
	}()
	return ch
}

// waitParked blocks until exactly n claims are parked on the coordinator.
func waitParked(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		p := c.parked
		c.mu.Unlock()
		if p == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("parked claims never reached %d", n)
}

// mountHTTP serves the coordinator's fabric endpoints on a loopback listener.
func mountHTTP(t *testing.T, c *Coordinator) string {
	t.Helper()
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

func register(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	reg, err := c.RegisterWorker(name)
	if err != nil {
		t.Fatal(err)
	}
	return reg.WorkerID
}

func TestLongPollClaimReturnsOnEnqueue(t *testing.T) {
	c, _ := testCoordinator(t, Config{}, nil)
	id := register(t, c, "idle")
	claimc := claimAsync(c, context.Background(), id, 5*time.Second)
	waitParked(t, c, 1)

	t0 := time.Now()
	cfg := scalefold.ReferenceConfig("H100", 32)
	execute(c, context.Background(), cfg)
	out := <-claimc
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("parked claim answered %v after the enqueue, want < 100ms", d)
	}
	if out.err != nil || len(out.cells) != 1 || out.cells[0].Key != cfg.Fingerprint() {
		t.Fatalf("parked claim = %+v, %v; want the enqueued cell", out.cells, out.err)
	}
}

func TestLongPollClaimWakesOnLossRequeue(t *testing.T) {
	cfg := Config{HeartbeatInterval: time.Second, HeartbeatTimeout: 3 * time.Second}
	c, ck := testCoordinator(t, cfg, nil)
	step := scalefold.ReferenceConfig("H100", 32)
	execute(c, context.Background(), step)
	waitPending(t, c, 1)
	doomed := register(t, c, "doomed")
	if cells, err := c.Claim(context.Background(), doomed, 0, 0); err != nil || len(cells) != 1 {
		t.Fatalf("Claim = %v, %v", cells, err)
	}
	survivor := register(t, c, "survivor")
	claimc := claimAsync(c, context.Background(), survivor, 5*time.Second)
	waitParked(t, c, 1)

	// Only the doomed worker falls silent past the timeout.
	ck.advance(2 * time.Second)
	if err := c.Heartbeat(survivor); err != nil {
		t.Fatal(err)
	}
	ck.advance(2 * time.Second)
	c.ExpireNow()
	select {
	case out := <-claimc:
		if out.err != nil || len(out.cells) != 1 || out.cells[0].Key != step.Fingerprint() {
			t.Fatalf("parked claim = %+v, %v; want the requeued cell", out.cells, out.err)
		}
	case <-time.After(time.Second):
		t.Fatal("loss requeue did not wake the parked claim")
	}
	if fs := c.Fleet(); fs.Lost != 1 || fs.Reassigned != 1 || fs.Pending != 0 {
		t.Fatalf("fleet after requeue: %+v", fs)
	}
}

func TestLongPollClaimTimesOutEmpty(t *testing.T) {
	c, _ := testCoordinator(t, Config{}, nil)
	id := register(t, c, "idle")
	const wait = 50 * time.Millisecond
	t0 := time.Now()
	cells, err := c.Claim(context.Background(), id, 0, wait)
	d := time.Since(t0)
	if err != nil || len(cells) != 0 {
		t.Fatalf("claim on an empty queue = %+v, %v; want empty", cells, err)
	}
	if d < wait || d > wait+time.Second {
		t.Fatalf("empty claim held %v, want about %v", d, wait)
	}
}

func TestLongPollCloseUnparksWithErrClosed(t *testing.T) {
	ck := &clock{t: time.Unix(1000, 0)}
	c := NewCoordinator(Config{Now: ck.now}, nil)
	base := mountHTTP(t, c)
	const n = 3
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		id := register(t, c, "idle")
		go func() {
			var resp ClaimResponse
			errc <- rpc(context.Background(), http.DefaultClient, base, "/v1/workers/claim",
				ClaimRequest{WorkerID: id, WaitMillis: 5000}, &resp)
		}()
	}
	waitParked(t, c, n)
	c.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "503") {
				t.Fatalf("parked claim after Close = %v, want ErrClosed (HTTP 503)", err)
			}
		case <-time.After(time.Second):
			t.Fatal("Close left a claim parked")
		}
	}
}

func TestLongPollExpiredWhileParkedGetsUnknownWorker(t *testing.T) {
	cfg := Config{HeartbeatInterval: time.Second, HeartbeatTimeout: 3 * time.Second}
	c, ck := testCoordinator(t, cfg, nil)
	id := register(t, c, "silent")
	claimc := claimAsync(c, context.Background(), id, 5*time.Second)
	waitParked(t, c, 1)

	ck.advance(cfg.HeartbeatTimeout + time.Second)
	execute(c, context.Background(), scalefold.ReferenceConfig("H100", 32)) // wakes the claim
	select {
	case out := <-claimc:
		if out.err != ErrUnknownWorker || len(out.cells) != 0 {
			t.Fatalf("expired worker's parked claim = %+v, %v; want ErrUnknownWorker", out.cells, out.err)
		}
	case <-time.After(time.Second):
		t.Fatal("enqueue did not wake the parked claim")
	}
	if fs := c.Fleet(); fs.Pending != 1 || fs.Lost != 1 {
		t.Fatalf("the cell must stay queued for a live worker: %+v", fs)
	}
}

func TestLongPollCancelledRequestFreesHandler(t *testing.T) {
	c, _ := testCoordinator(t, Config{}, nil)
	base := mountHTTP(t, c)
	id := register(t, c, "leaving")
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		var resp ClaimResponse
		errc <- rpc(ctx, http.DefaultClient, base, "/v1/workers/claim",
			ClaimRequest{WorkerID: id, WaitMillis: 10000}, &resp)
	}()
	waitParked(t, c, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled claim = %v, want context.Canceled", err)
	}
	waitParked(t, c, 0) // the handler returned long before its 10s wait

	// The abandoned claim took nothing: the next cell goes to a live claim.
	execute(c, context.Background(), scalefold.ReferenceConfig("H100", 32))
	waitPending(t, c, 1)
	if cells, err := c.Claim(context.Background(), id, 0, 0); err != nil || len(cells) != 1 {
		t.Fatalf("Claim after the abandoned claim = %v, %v", cells, err)
	}
}

func TestHomeLockedAllocFreeAndFNV1a(t *testing.T) {
	c, _ := testCoordinator(t, Config{}, nil)
	for _, name := range []string{"a", "b", "c"} {
		register(t, c, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if allocs := testing.AllocsPerRun(100, func() { c.homeLocked("v4:alpha") }); allocs != 0 {
		t.Fatalf("homeLocked allocates %.1f times per call, want 0", allocs)
	}
	// The inline hash is hash/fnv's FNV-1a: rendezvous homes are unchanged.
	for _, key := range []string{"", "v4:alpha", "v3:0123456789abcdef"} {
		for id := range c.workers {
			h := fnv.New64a()
			h.Write([]byte(key))
			h.Write([]byte{0})
			h.Write([]byte(id))
			if got := fnv1a(fnv1a(fnv1a(fnvOffset64, key), "\x00"), id); got != h.Sum64() {
				t.Fatalf("fnv1a(%q, %q) = %x, hash/fnv %x", key, id, got, h.Sum64())
			}
		}
	}
}
