package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"dbpl/client"
	"dbpl/internal/index"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server"
	"dbpl/internal/telemetry"
)

// Node is one served store: an intrinsic log opened through the
// instrumented FS, a server over it on a loopback port, and the registry
// both report into (as `dbpl serve` wires them).
type Node struct {
	Store *intrinsic.Store
	Srv   *server.Server
	Reg   *telemetry.Registry
	Addr  string
	done  chan error
}

// openStore opens path through telemetry.InstrumentFS on reg.
func openStore(path string, reg *telemetry.Registry) (*intrinsic.Store, error) {
	return intrinsic.OpenFS(telemetry.InstrumentFS(iofault.OS{}, reg), path)
}

// serve builds a server over st (server.New) and serves it on 127.0.0.1.
// newDur is how long server.New took.
func serve(st *intrinsic.Store, reg *telemetry.Registry, cfg server.Config) (n *Node, newDur time.Duration, err error) {
	cfg.Registry = reg
	t0 := time.Now()
	srv, err := server.New(st, cfg)
	newDur = time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	n = &Node{Store: st, Srv: srv, Reg: reg, Addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ln) }()
	return n, newDur, nil
}

// Stop shuts the server down (appending its final durable group on a
// primary), waits for Serve to return, and closes the store.
func (n *Node) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.Srv.Shutdown(ctx)
	<-n.done
	if cerr := n.Store.Close(); err == nil {
		err = cerr
	}
	return err
}

// dial opens a client with one pooled connection and retries as the
// client ships them (the retry counter is a per-layer metric).
func dial(addr string) (*client.Client, error) {
	return client.Dial(addr, &client.Options{PoolSize: 1})
}

// bulkLoad creates the store at path with the whole population in one
// Bind…Commit, declaring the Dept, Empno and Name indexes.
func bulkLoad(path string, pop *Population, reg *telemetry.Registry) (*intrinsic.Store, error) {
	st, err := openStore(path, reg)
	if err != nil {
		return nil, err
	}
	for _, r := range pop.Roots {
		if err := st.Bind(r.Name, r.Value, kindType[r.Kind]); err != nil {
			st.Close()
			return nil, err
		}
	}
	for _, f := range indexFields {
		st.DeclareIndex(f)
	}
	if _, err := st.Commit(); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// indexDefs returns the declared index definitions.
func indexDefs() []index.Def {
	defs := make([]index.Def, len(indexFields))
	for i, f := range indexFields {
		defs[i] = index.Def{Field: f}
	}
	return defs
}

// copyFile copies src to dst (dst is replaced).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// waitCaughtUp polls until the follower store's durable end reaches end.
func waitCaughtUp(follower *intrinsic.Store, end int64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for follower.DurableEnd() < end {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at %d, primary at %d after %v", follower.DurableEnd(), end, limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// sameFile reports whether two files hold identical bytes.
func sameFile(a, b string) (bool, error) {
	x, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return string(x) == string(y), nil
}

// scratchDir returns a fresh directory under base.
func scratchDir(base, name string) (string, error) {
	dir := filepath.Join(base, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
