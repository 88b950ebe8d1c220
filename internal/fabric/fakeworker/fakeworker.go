// Package fakeworker runs a complete sweep fabric — coordinator-mode service
// plus an N-worker fleet — inside one test process over httptest loopback
// HTTP. Nothing is faked about the protocol: the workers are real
// fabric.Worker loops speaking the real /v1/workers wire format to a real
// service.Server; only the transport (in-process listener) and the clock
// pressures (millisecond heartbeats and polls) are test-sized. The chaos
// controls — Kill, per-worker BeforeCell hooks, paused heartbeats — drive the
// loss-detection and reassignment paths deterministically under -race -short.
package fakeworker

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/scalefold"
	"repro/internal/service"
	"repro/internal/store"
)

// Options sizes a fleet. The zero value is a usable single-worker fleet with
// snappy test timings.
type Options struct {
	// Workers is the fleet size. <= 0 means 1.
	Workers int
	// Fabric is the coordinator protocol config. Zero fields get test-sized
	// defaults: 10ms heartbeats, 5s timeout (loss detection effectively off —
	// chaos tests shrink it), batch 4.
	Fabric fabric.Config
	// Service configures the coordinator-side server; its Fabric field is
	// overwritten. A zero value serves from memory.
	Service service.Config
	// Store is the fleet's shared result store (nil = one fresh in-memory
	// store shared by every worker — the in-process analogue of a shared
	// directory).
	Store store.Store[cluster.Result]
	// Poll is the workers' idle claim interval. <= 0 means 2ms.
	Poll time.Duration
	// Configure, when non-nil, runs on each worker after construction and
	// before its loop starts — the place to install BeforeCell chaos hooks.
	Configure func(i int, w *fabric.Worker)
}

// Fleet is a running coordinator + workers. Close (registered as a test
// cleanup automatically) tears everything down in dependency order.
type Fleet struct {
	// Server is the coordinator-mode service; Client targets it over the
	// loopback listener at URL.
	Server *service.Server
	Client *service.Client
	URL    string
	// Shared is the fleet's shared result store.
	Shared store.Store[cluster.Result]
	// Metrics counts how the whole fleet satisfied its claimed cells: every
	// worker resolves with it, so Metrics.Simulated is the fleet's exact
	// simulation count.
	Metrics *scalefold.SweepMetrics

	tb      testing.TB
	ts      *httptest.Server
	workers []*fabric.Worker
	cancels []context.CancelFunc
	wg      sync.WaitGroup
	once    sync.Once
}

// Start brings up the fabric: a coordinator-mode server on a loopback
// listener and opts.Workers worker loops pointed at it.
func Start(tb testing.TB, opts Options) *Fleet {
	tb.Helper()
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	fc := opts.Fabric
	if fc.HeartbeatInterval <= 0 {
		fc.HeartbeatInterval = 10 * time.Millisecond
	}
	if fc.HeartbeatTimeout <= 0 {
		// Generous default: happy-path tests must never trip loss detection
		// on a slow CI box. Chaos tests shrink it explicitly.
		fc.HeartbeatTimeout = 5 * time.Second
	}
	svcCfg := opts.Service
	svcCfg.Fabric = &fc
	srv, err := service.New(svcCfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	shared := opts.Store
	if shared == nil {
		shared = store.NewMem[cluster.Result]()
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	f := &Fleet{
		Server:  srv,
		Client:  &service.Client{Base: ts.URL},
		URL:     ts.URL,
		Shared:  shared,
		Metrics: &scalefold.SweepMetrics{},
		tb:      tb,
		ts:      ts,
	}
	for i := 0; i < opts.Workers; i++ {
		w := &fabric.Worker{
			Base:    ts.URL,
			Name:    fmt.Sprintf("fw-%d", i),
			Store:   shared,
			Poll:    poll,
			Metrics: f.Metrics,
		}
		if opts.Configure != nil {
			opts.Configure(i, w)
		}
		ctx, cancel := context.WithCancel(context.Background())
		f.workers = append(f.workers, w)
		f.cancels = append(f.cancels, cancel)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			w.Run(ctx)
		}()
	}
	tb.Cleanup(f.Close)
	return f
}

// Worker returns worker i (for chaos controls and counters).
func (f *Fleet) Worker(i int) *fabric.Worker { return f.workers[i] }

// Kill stops worker i's loop immediately — mid-batch if it is executing one —
// without deregistering it: exactly a process crash, as the coordinator sees
// it. Safe to call from the worker's own BeforeCell hook, and idempotent.
func (f *Fleet) Kill(i int) { f.cancels[i]() }

// Close kills the fleet, waits for the worker loops to exit, and shuts down
// the listener and the server. Registered as a test cleanup by Start;
// explicit earlier calls are fine (it runs once).
func (f *Fleet) Close() {
	f.once.Do(func() {
		for _, cancel := range f.cancels {
			cancel()
		}
		f.wg.Wait()
		f.ts.Close()
		if err := f.Server.Close(); err != nil {
			f.tb.Errorf("fakeworker: server close: %v", err)
		}
	})
}
