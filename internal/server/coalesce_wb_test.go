// White-box tests for the commit coalescer: batch failure semantics, the
// double-ack regression at the stage→ack boundary, exactly-once
// idempotency across and within batches, and the async acked-end
// watermark. These drive Server.commit directly (no network) so the
// injected faults land on deterministic I/O boundaries.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server/wire"
	"dbpl/internal/value"
)

func putOp(name string, n int64) txnOp {
	return txnOp{name: name, dyn: dynamic.Make(value.Rec("Name", value.String(name), "N", value.Int(n)))}
}

// wbServer builds a server over fsys without a listener; commits are
// driven through s.commit directly. Cleanup shuts the committer down and
// closes the store (tolerating a poisoned final commit — several tests
// poison on purpose).
func wbServer(t *testing.T, fsys iofault.FS, path string, cfg Config) (*Server, *intrinsic.Store) {
	t.Helper()
	st, err := intrinsic.OpenFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		st.Close()
	})
	return srv, st
}

// groupCfg lingers generously so concurrent test writers coalesce into
// one batch deterministically.
func groupCfg() Config {
	return Config{Durability: DurGroup, GroupMaxDelay: 200 * time.Millisecond}
}

// TestCoalescerSharesFsync: K concurrent commits under DurGroup are
// promoted by fewer fsyncs than commits — the amortization itself — and
// every write is durable in the store afterwards. Under DurPerCommit the
// same committer runs with a batch of one: every batch holds exactly one
// group, each commit pays its own fsync, and no fsync is saved.
func TestCoalescerSharesFsync(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"group", groupCfg()},
		{"per-commit", Config{Durability: DurPerCommit, GroupMaxDelay: 200 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := iofault.NewInjector(iofault.OS{})
			srv, st := wbServer(t, inj, filepath.Join(t.TempDir(), "share.log"), tc.cfg)

			const K = 8
			syncsBefore := inj.Count(iofault.OpSync)
			var wg sync.WaitGroup
			errs := make([]error, K)
			for i := 0; i < K; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = srv.commit([]txnOp{putOp(fmt.Sprintf("r%d", i), int64(i))}, "", nil)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			syncs := inj.Count(iofault.OpSync) - syncsBefore
			saved := srv.m.fsyncsSaved.Value()
			batches, groups := srv.m.batchGroups.Stat()
			if tc.cfg.Durability == DurPerCommit {
				if syncs != K {
					t.Fatalf("%d per-commit commits used %d fsyncs, want %d", K, syncs, K)
				}
				if saved != 0 {
					t.Fatalf("dbpl_commit_fsyncs_saved_total = %d under per-commit, want 0", saved)
				}
				if batches != K || groups != K {
					t.Fatalf("dbpl_commit_batch_groups: %d batches holding %d groups, want %d batches of 1", batches, groups, K)
				}
			} else {
				if syncs >= K {
					t.Fatalf("%d commits used %d fsyncs; coalescing saved nothing", K, syncs)
				}
				if saved == 0 {
					t.Fatal("dbpl_commit_fsyncs_saved_total = 0 after a coalesced batch")
				}
			}
			for i := 0; i < K; i++ {
				if _, ok := st.Root(fmt.Sprintf("r%d", i)); !ok {
					t.Fatalf("r%d missing from the store after an acked commit", i)
				}
			}
			if st.StagedGroups() != 0 {
				t.Fatalf("%d groups left staged after all acks", st.StagedGroups())
			}
		})
	}
}

// TestCoalescerBatchFsyncFailureFailsAllWaiters: an injected failure of
// the shared batch fsync must fail every waiter in the batch with the
// same typed cause (iofault.ErrInjected through the store's wrap), leave
// the published state and the log at the pre-batch boundary, and let the
// next commit proceed after rollback.
func TestCoalescerBatchFsyncFailureFailsAllWaiters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failall.log")
	inj := iofault.NewInjector(iofault.OS{})
	srv, st := wbServer(t, inj, path, groupCfg())
	if _, err := srv.commit([]txnOp{putOp("base", 0)}, "", nil); err != nil {
		t.Fatal(err)
	}
	durable := st.DurableEnd()

	// Fail the next K syncs: however the K commits split into batches,
	// every batch's shared fsync fails.
	const K = 6
	n := inj.Count(iofault.OpSync)
	for i := 1; i <= K; i++ {
		inj.FailAt(iofault.OpSync, n+i)
	}
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.commit([]txnOp{putOp(fmt.Sprintf("doomed%d", i), int64(i))}, "", nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d was acked although its batch fsync failed", i)
		}
		if !errors.Is(err, iofault.ErrInjected) {
			t.Fatalf("waiter %d failed with %v, want the injected fsync cause", i, err)
		}
	}
	if st.DurableEnd() != durable {
		t.Fatalf("durable end moved %d -> %d across an all-failed batch", durable, st.DurableEnd())
	}
	if got := len(srv.state.Load().roots); got != 1 {
		t.Fatalf("published state has %d roots after a failed batch, want 1", got)
	}

	// Rollback recovered the store: the next commit succeeds and only it
	// is durable. (Disarm the spare failures first — the K commits may
	// have coalesced into fewer than K batches.)
	inj.Clear(iofault.OpSync)
	if _, err := srv.commit([]txnOp{putOp("after", 1)}, "", nil); err != nil {
		t.Fatalf("commit after failed batch: %v", err)
	}
	if _, ok := st.Root("after"); !ok {
		t.Fatal("post-recovery commit missing from store")
	}
	for i := 0; i < K; i++ {
		if _, ok := st.Root(fmt.Sprintf("doomed%d", i)); ok {
			t.Fatalf("doomed%d resurrected after its batch failed", i)
		}
	}
}

// TestCoalescerPoisonBetweenStageAndAck is the double-ack regression: the
// batch fsync fails AND the rollback truncate fails twice (the store
// poisons, the server enters degraded mode) exactly between stage and
// ack. No waiter whose group was truncated back may be acknowledged, and
// every later write must refuse with the degraded code.
func TestCoalescerPoisonBetweenStageAndAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.log")
	inj := iofault.NewInjector(iofault.OS{})
	srv, st := wbServer(t, inj, path, groupCfg())
	if _, err := srv.commit([]txnOp{putOp("base", 0)}, "", nil); err != nil {
		t.Fatal(err)
	}

	// Every sync fails for a while (whatever the batch split), and the
	// next two truncates fail too: the store's rollback AND the server's
	// Abort replay both cannot trim the staged groups — poison.
	const K = 4
	ns := inj.Count(iofault.OpSync)
	for i := 1; i <= K; i++ {
		inj.FailAt(iofault.OpSync, ns+i)
	}
	nt := inj.Count(iofault.OpTruncate)
	inj.FailAt(iofault.OpTruncate, nt+1)
	inj.FailAt(iofault.OpTruncate, nt+2)

	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.commit([]txnOp{putOp(fmt.Sprintf("doomed%d", i), int64(i))}, "", nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d was acked although its group was truncated back (the double-ack hazard)", i)
		}
	}
	if !srv.degraded.Load() {
		t.Fatal("server not degraded after rollback double-failure")
	}
	var we *wire.WireError
	if _, err := srv.commit([]txnOp{putOp("later", 9)}, "", nil); !errors.As(err, &we) || we.Code != wire.CodeDegraded {
		t.Fatalf("commit on poisoned write path = %v, want CodeDegraded", err)
	}
	// HEALTH self-reports the poisoned flag next to the watermarks.
	op, fields := srv.handleHealth()
	if op != wire.OpOK {
		t.Fatalf("HEALTH answered %v", op)
	}
	h, err := wire.DecodeHealth(fields)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Poisoned {
		t.Fatal("HEALTH does not report the poisoned write path")
	}

	// Restart-equivalent: reopening the file lands on a commit-group
	// boundary with every durable root intact. The doomed groups MAY be
	// visible — the failed truncates left them on disk as complete,
	// valid groups, and unacked writes surviving is extra durability,
	// not a violation. The invariant the double-ack fix protects is that
	// none of their *writers* was acknowledged (checked above).
	srv.commitMu.Lock() // the store is wedged; nothing in flight holds this
	srv.commitMu.Unlock()
	rep, err := intrinsic.Fsck(path)
	if err != nil {
		t.Fatalf("fsck after poison: %v", err)
	}
	if rep.Corrupt != nil {
		t.Fatalf("log corrupt after poisoned batch:\n%s", rep.Corrupt)
	}
	fresh, err := intrinsic.Open(path)
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer fresh.Close()
	if _, ok := fresh.Root("base"); !ok {
		t.Fatal("durable root lost")
	}
	_ = st
}

// TestCoalescerIdemExactlyOnce: idempotency keys stay exactly-once under
// batching — a retry in a *later* batch replays the recorded answer
// without re-executing, and a duplicate key *within* one batch stages a
// single group whose result both waiters share.
func TestCoalescerIdemExactlyOnce(t *testing.T) {
	srv, st := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "idem.log"), groupCfg())

	existed, err := srv.commit([]txnOp{putOp("R", 1)}, "key-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(existed) != 1 || existed[0] {
		t.Fatalf("first commit existed = %v, want [false]", existed)
	}
	// Across batches: re-execution would now see R existing and answer
	// [true]; the dedup cache must answer the recorded [false].
	existed, err = srv.commit([]txnOp{putOp("R", 1)}, "key-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(existed) != 1 || existed[0] {
		t.Fatalf("retried commit existed = %v, want the recorded [false]", existed)
	}

	// Within one batch: two concurrent commits carrying the same fresh key
	// must stage once; both see the same answer.
	groupsBefore := commitGroupCount(t, srv)
	var wg sync.WaitGroup
	results := make([][]bool, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = srv.commit([]txnOp{putOp("S", 7)}, "key-2", nil)
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("dup-key commit %d: %v", i, errs[i])
		}
		if len(results[i]) != 1 || results[i][0] {
			t.Fatalf("dup-key commit %d existed = %v, want [false]", i, results[i])
		}
	}
	if grew := commitGroupCount(t, srv) - groupsBefore; grew > 1 {
		t.Fatalf("duplicate in-batch key staged %d groups, want 1", grew)
	}
	if _, ok := st.Root("S"); !ok {
		t.Fatal("S missing after dup-key batch")
	}
}

// commitGroupCount reads the durable commit-group count back out of the
// server's log via the replication reader.
func commitGroupCount(t *testing.T, srv *Server) int {
	t.Helper()
	_, _, n, err := srv.store.ReadGroupsAt(intrinsic.HeaderSize, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// gateFS lets a test hold the log's fsync open: Sync blocks until the
// test releases it. Everything else passes through.
type gateFS struct {
	iofault.FS
	mu      sync.Mutex
	blocked chan chan struct{} // one send per blocked Sync; test closes the inner chan
	open    bool
}

func newGateFS(inner iofault.FS) *gateFS {
	return &gateFS{FS: inner, blocked: make(chan chan struct{}, 16)}
}

// Hold makes subsequent Syncs block until Release.
func (g *gateFS) Hold() { g.mu.Lock(); g.open = true; g.mu.Unlock() }

// Release unblocks every blocked Sync and lets future ones pass.
func (g *gateFS) Release() {
	g.mu.Lock()
	g.open = false
	g.mu.Unlock()
	for {
		select {
		case ch := <-g.blocked:
			close(ch)
		default:
			return
		}
	}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	iofault.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.mu.Lock()
	gated := f.g.open
	f.g.mu.Unlock()
	if gated {
		ch := make(chan struct{})
		f.g.blocked <- ch
		<-ch
	}
	return f.File.Sync()
}

// TestAsyncAckAheadOfDurable: under DurAsync a commit is acknowledged
// while its batch's fsync is still in flight, and the acked-end watermark
// runs ahead of the durable end by exactly that window — observable via
// HEALTH. Once the fsync lands the two converge.
func TestAsyncAckAheadOfDurable(t *testing.T) {
	gate := newGateFS(iofault.OS{})
	srv, st := wbServer(t, gate, filepath.Join(t.TempDir(), "async.log"),
		Config{Durability: DurAsync})
	// Registered after wbServer's cleanup so it runs first (LIFO): never
	// leave the committer wedged on a gated fsync after a failed assert.
	t.Cleanup(gate.Release)

	if _, err := srv.commit([]txnOp{putOp("base", 0)}, "", nil); err != nil {
		t.Fatal(err)
	}
	// The ack raced ahead of the first batch's fsync too — wait for it to
	// land so the baseline durable end is stable before gating.
	settle := time.Now().Add(5 * time.Second)
	for st.StagedGroups() != 0 || st.DurableEnd() <= intrinsic.HeaderSize {
		if time.Now().After(settle) {
			t.Fatal("first async batch never became durable")
		}
		time.Sleep(time.Millisecond)
	}
	durable := st.DurableEnd()

	gate.Hold()
	done := make(chan error, 1)
	go func() {
		_, err := srv.commit([]txnOp{putOp("fast", 1)}, "", nil)
		done <- err
	}()
	// The ack must arrive while the fsync is gated shut.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("async commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		gate.Release()
		t.Fatal("async commit was not acked before its fsync completed")
	}
	op, fields := srv.handleHealth()
	if op != wire.OpOK {
		t.Fatalf("HEALTH answered %v", op)
	}
	h, err := wire.DecodeHealth(fields)
	if err != nil {
		t.Fatal(err)
	}
	if h.DurableEnd != durable {
		t.Fatalf("durable end %d moved while the fsync was gated (was %d)", h.DurableEnd, durable)
	}
	if h.AckedEnd <= h.DurableEnd {
		t.Fatalf("acked end %d not ahead of durable end %d during the gated fsync", h.AckedEnd, h.DurableEnd)
	}
	// Read-your-writes: the acked write is in the published state.
	if _, ok := srv.state.Load().roots["fast"]; !ok {
		t.Fatal("acked async write missing from the published state")
	}

	gate.Release()
	deadline := time.Now().Add(5 * time.Second)
	for st.DurableEnd() <= durable {
		if time.Now().After(deadline) {
			t.Fatal("batch fsync never landed after release")
		}
		time.Sleep(time.Millisecond)
	}
	op, fields = srv.handleHealth()
	if op != wire.OpOK {
		t.Fatalf("HEALTH answered %v", op)
	}
	if h, err = wire.DecodeHealth(fields); err != nil {
		t.Fatal(err)
	}
	if h.AckedEnd != h.DurableEnd {
		t.Fatalf("watermarks did not converge after the fsync: acked %d, durable %d", h.AckedEnd, h.DurableEnd)
	}
}

// TestAsyncFsyncFailurePoisons: when the async batch fsync fails, writes
// were already acknowledged against state that can no longer be made
// durable — the write path must poison unconditionally and report it.
func TestAsyncFsyncFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "async-poison.log")
	inj := iofault.NewInjector(iofault.OS{})
	srv, _ := wbServer(t, inj, path, Config{Durability: DurAsync})
	if _, err := srv.commit([]txnOp{putOp("base", 0)}, "", nil); err != nil {
		t.Fatal(err)
	}

	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	// The ack precedes the fsync, so this commit reports success even
	// though its batch is about to be lost — the mode's documented risk.
	if _, err := srv.commit([]txnOp{putOp("lost", 1)}, "", nil); err != nil {
		t.Fatalf("async commit (acked before failing fsync): %v", err)
	}
	// The failure lands on the committer goroutine; the next commit must
	// observe the poisoned write path.
	var we *wire.WireError
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := srv.commit([]txnOp{putOp("later", 2)}, "", nil)
		if errors.As(err, &we) && we.Code == wire.CodeDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write path not poisoned after async fsync failure (last err: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	// The acked write is genuinely lost on disk: a fresh open of the log
	// holds only the durable prefix.
	fresh, err := intrinsic.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, ok := fresh.Root("lost"); ok {
		t.Fatal("write acked under async survived the failed fsync — the test premise is broken")
	}
	if _, ok := fresh.Root("base"); !ok {
		t.Fatal("durable root lost")
	}
}
