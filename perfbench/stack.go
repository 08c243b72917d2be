package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"adindex"
	"adindex/internal/core"
	"adindex/internal/multiserver"
	"adindex/internal/server"
	"adindex/internal/shard"
)

// stack is one workload's serving stack, listening on loopback HTTP.
type stack struct {
	srv  *server.Server
	addr string
	ix   *adindex.Index // local workloads
	dir  string         // durable state directory (churn-durable)

	shardSrv []*multiserver.Server // sharded-tcp
	adSrv    *multiserver.Server
	nc       *shard.NetClient
}

// serverConfig is the HTTP front end's configuration: defaults, the
// result cache off unless the workload turns it on, and the auction on
// local workloads.
func serverConfig(sp spec) server.Config {
	cfg := server.Config{Logger: log.New(io.Discard, "", 0)}
	if !sp.cache {
		cfg.CacheEntries = -1
	}
	if !sp.sharded {
		sel := selection
		cfg.Selection = &sel
	}
	return cfg
}

// startStack sets up the workload's program from ads, until its HTTP
// server listens. workDir holds durable state.
func startStack(sp spec, ads []adindex.Ad, workDir string) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	switch {
	case sp.sharded:
		cl, err := shard.New(ads, numShards, core.Options{})
		if err != nil {
			return st, err
		}
		// One index server per shard, as ShardedIndex.ServeShards builds
		// them, plus the ad-metadata server.
		replicas := make([][]string, 0, cl.NumShards())
		for i := 0; i < cl.NumShards(); i++ {
			srv, err := multiserver.NewIndexServer("127.0.0.1:0", multiserver.ServeOpts{},
				multiserver.CoreBackend{Index: cl.Shard(i)})
			if err != nil {
				return st, err
			}
			st.shardSrv = append(st.shardSrv, srv)
			replicas = append(replicas, []string{srv.Addr()})
		}
		if st.adSrv, err = multiserver.NewAdServer("127.0.0.1:0", multiserver.ServeOpts{}, ads); err != nil {
			return st, err
		}
		if st.nc, err = shard.DialReplicaShards(replicas, st.adSrv.Addr(), shard.Options{}); err != nil {
			return st, err
		}
		st.srv = server.NewRemote(st.nc, serverConfig(sp))
	case sp.durable:
		if st.dir, err = os.MkdirTemp(workDir, "durable-"); err != nil {
			return st, err
		}
		ix, _, err := adindex.OpenDurable(filepath.Join(st.dir, "state"), adindex.Options{},
			adindex.DurableConfig{Bootstrap: ads})
		if err != nil {
			return st, err
		}
		st.ix = ix
		st.srv = server.New(ix, serverConfig(sp))
	default:
		st.ix = adindex.Build(ads, adindex.Options{})
		st.srv = server.New(st.ix, serverConfig(sp))
	}
	if err := st.srv.Start("127.0.0.1:0"); err != nil {
		return st, err
	}
	st.addr = st.srv.Addr()
	return st, nil
}

// close stops every server, releases the index and removes durable
// state. It is safe on a partly built stack.
func (st *stack) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.srv != nil && st.addr != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		note(st.srv.Shutdown(ctx))
		cancel()
	}
	if st.nc != nil {
		st.nc.Close()
	}
	for _, s := range st.shardSrv {
		note(s.Close())
	}
	if st.adSrv != nil {
		note(st.adSrv.Close())
	}
	if st.ix != nil && st.ix.Durable() {
		note(st.ix.Close())
	}
	if st.dir != "" {
		note(os.RemoveAll(st.dir))
	}
	*st = stack{}
	if first != nil {
		return fmt.Errorf("stack teardown: %w", first)
	}
	return nil
}
