// Command nncserver serves NN-candidate queries over HTTP.
//
// Usage:
//
//	nncserver -n=5000 -m=10 -addr=:8080          # generated dataset
//	nncserver -input=objects.csv -addr=:8080     # CSV dataset
//	nncserver -disk=objects.pg -frames=256       # disk-resident index file
//	nncserver -disk=objects.pg -mutable          # + POST /insert, POST /delete
//	nncserver -router -shards="http://s0a:8080,http://s0b:8080;http://s1a:8080"
//
// Then:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/objects
//	curl -X POST localhost:8080/query -d '{
//	  "instances": [[5000,5000,5000],[5100,5050,4900]],
//	  "operator": "PSD", "k": 1
//	}'
//
// With -disk the server fronts a page file previously built by nncdisk
// (or diskindex.Build): queries run through the same engine over the
// buffer pool, and /objects endpoints answer 501 since the disk backend
// does not enumerate. Canceled requests abort the search mid-traversal on
// either backend. Adding -mutable opens the file writable — POST /insert
// and POST /delete commit through the write-ahead log, searches in
// flight keep their snapshot, and a clean shutdown checkpoints so the
// page file alone carries the index. Without -mutable those endpoints
// answer 501.
//
// With -router the process serves no data itself: it scatters each query
// to every shard listed in -shards (';' separates shards, ',' separates
// replicas of one shard), gathers the per-shard k-skybands and merges
// them through the core dominance checker — bit-identical to a single
// node over the union. Each shard call runs inside a fault envelope
// (per-shard deadline, capped jittered retries, a hedged duplicate after
// the shard's p95, replica failover behind a consecutive-failure circuit
// breaker with half-open /healthz probes); dead shards degrade the answer
// to HTTP 206 with an unreachable_shards count and Retry-After advice
// instead of failing the query. Router health appears under "cluster" in
// /healthz and sd_router_* series in /metrics.
//
// By default every backend serves behind the front door: request
// coalescing, a semantic result cache with precise invalidation
// (-cache-mb budget), optional per-client rate limiting (-rate, -burst),
// a global in-flight ceiling (-max-inflight) and Prometheus-format
// GET /metrics. Shed requests answer 429 with Retry-After. -no-front
// serves the bare API. A -mutable boot comes up warming: the port
// listens immediately, /readyz answers 503 until the WAL replay
// finishes, then the index attaches and serving begins.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"spatialdom/internal/cluster"
	"spatialdom/internal/datagen"
	"spatialdom/internal/dataio"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/pager"
	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
	"spatialdom/internal/uncertain"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		n       = flag.Int("n", 2000, "number of objects to generate")
		m       = flag.Int("m", 10, "average instances per object")
		dist    = flag.String("dist", "anti", "dataset: anti, indep, house, nba, gw, clust")
		seed    = flag.Int64("seed", 1, "generation seed")
		input   = flag.String("input", "", "load objects from CSV instead of generating")
		disk    = flag.String("disk", "", "serve from a disk index page file built by nncdisk")
		mutable = flag.Bool("mutable", false, "open -disk writable: POST /insert and /delete commit through the WAL")
		frames  = flag.Int("frames", 256, "buffer pool frames for -disk")
		pprofOn = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060)")
		drain   = flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")

		router       = flag.Bool("router", false, "serve as a scatter-gather router over -shards instead of local data")
		shardsSpec   = flag.String("shards", "", "router shard replicas: ';' separates shards, ',' separates replicas (e.g. \"http://a,http://b;http://c\")")
		shardTimeout = flag.Duration("shard-timeout", 2*time.Second, "router: per-shard attempt deadline")
		hedgeAfter   = flag.Duration("hedge-after", 0, "router: fixed hedge delay; 0 adapts to the shard's p95, negative disables hedging")
		brThreshold  = flag.Int("breaker-threshold", 3, "router: consecutive failures that open a replica's circuit breaker")
		brCooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "router: open-breaker cooldown before a half-open probe")

		noFront     = flag.Bool("no-front", false, "serve the bare API without the front door (no cache, no shedding, no /metrics)")
		cacheMB     = flag.Int("cache-mb", 64, "semantic result cache budget in MiB; 0 disables the cache")
		rate        = flag.Float64("rate", 0, "per-client requests/sec (token bucket); 0 disables rate limiting")
		burst       = flag.Int("burst", 0, "per-client burst; 0 means 2x -rate")
		maxInflight = flag.Int("max-inflight", 0, "global in-flight ceiling; 0 means 16x GOMAXPROCS, negative disables")
	)
	flag.Parse()

	if *pprofOn != "" {
		// A separate listener keeps the profiling endpoints off the query
		// port, so they can stay bound to localhost in deployments.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		//nnc:detached debug listener lives for the whole process; the OS reaps it at exit
		go func() {
			log.Printf("serving pprof on %s", *pprofOn)
			log.Println(http.ListenAndServe(*pprofOn, mux))
		}()
	}

	doorCfg := front.DoorConfig{CacheBytes: int64(*cacheMB) << 20}
	if *cacheMB <= 0 {
		doorCfg.CacheBytes = -1
	}
	frontCfg := front.Config{RatePerSec: *rate, Burst: *burst, MaxInFlight: *maxInflight}

	// build wraps a ready backend in the front door (unless -no-front)
	// and returns the HTTP entry point for it.
	var fh *front.Handler
	build := func(srv *server.Server, b server.Backend) http.Handler {
		if *noFront {
			srv.Attach(b)
			return logging(srv)
		}
		door := front.NewDoor(b, doorCfg)
		if fh == nil {
			fh = front.NewHandler(srv, door, frontCfg)
			srv.SetFront(fh)
		} else {
			fh.AttachDoor(door)
		}
		srv.Attach(door)
		return logging(fh)
	}

	var handler http.Handler
	var srv *server.Server
	// mutIdx holds the mutable disk index once its (possibly async) WAL
	// replay finishes, so shutdown can checkpoint it.
	var mutIdx atomic.Pointer[diskindex.Index]
	if *router {
		shardURLs, err := parseShards(*shardsSpec)
		if err != nil {
			log.Fatal(err)
		}
		rt, err := cluster.New(cluster.Config{
			Shards:           shardURLs,
			ShardTimeout:     *shardTimeout,
			HedgeAfter:       *hedgeAfter,
			BreakerThreshold: *brThreshold,
			BreakerCooldown:  *brCooldown,
		})
		if err != nil {
			log.Fatal(err)
		}
		refreshCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = rt.Refresh(refreshCtx)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("routing %d objects across %d shard(s)", rt.Len(), len(shardURLs))
		srv = server.NewWarming("")
		handler = build(srv, rt)
		if fh != nil {
			rt.RegisterMetrics(fh.Registry())
		}
	} else if *disk != "" && *mutable {
		// Boot warming: the listener comes up immediately answering 503
		// (readyz reports the replay), and Attach flips it live when the
		// WAL replay finishes — a long replay no longer blanks the port.
		srv = server.NewWarming("wal replay: " + *disk)
		if *noFront {
			handler = logging(srv)
		} else {
			fh = front.NewHandler(srv, nil, frontCfg)
			srv.SetFront(fh)
			handler = logging(fh)
		}
		//nnc:detached warming boot: Attach flips the server live and the goroutine ends; log.Fatal covers the failure path
		go func() {
			idx, err := diskindex.OpenFileMutable(*disk, &diskindex.MutableOptions{Frames: *frames})
			if err != nil {
				log.Fatal(err)
			}
			if rec := idx.WALRecovery(); rec != nil && rec.CommittedTxs > 0 {
				log.Printf("recovered %d committed transaction(s) from the WAL", rec.CommittedTxs)
			}
			log.Printf("serving mutable disk index %s (epoch %d)", idx, idx.Epoch())
			mutIdx.Store(idx)
			if *noFront {
				srv.Attach(idx)
				return
			}
			door := front.NewDoor(idx, doorCfg)
			fh.AttachDoor(door)
			srv.Attach(door)
		}()
	} else if *disk != "" {
		pf, err := pager.Open(*disk)
		if err != nil {
			log.Fatal(err)
		}
		defer pf.Close()
		// The super page is the first page a Build allocates.
		idx, err := diskindex.Open(pager.NewPool(pf, *frames), 1)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving disk index %s", idx)
		srv = server.NewWarming("")
		handler = build(srv, idx)
	} else {
		var objs []*uncertain.Object
		if *input != "" {
			var err error
			objs, err = dataio.ReadFile(*input)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded %d objects from %s", len(objs), *input)
		} else {
			centers, err := datagen.ParseCenterDist(*dist)
			if err != nil {
				log.Fatal(err)
			}
			ds := datagen.Generate(datagen.Params{N: *n, M: *m, Centers: centers, Seed: *seed})
			objs = ds.Objects
			log.Printf("generated %d %s objects", len(objs), centers)
		}
		store, err := front.NewMemStore(objs)
		if err != nil {
			log.Fatal(err)
		}
		srv = server.NewWarming("")
		handler = build(srv, store)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections and
	// drains in-flight requests for up to -drain before the process exits,
	// so searches running against the disk backend finish (or cancel)
	// cleanly instead of dying mid-read.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving NN-candidate queries on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("shutting down, draining for up to %v", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		if ix := mutIdx.Load(); ix != nil {
			// Checkpoints, so a clean shutdown leaves an empty WAL.
			if err := ix.Close(); err != nil {
				log.Printf("closing mutable index: %v", err)
			}
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		log.Printf("bye")
	}
}

// parseShards parses the -shards grammar: ';' separates shards, ','
// separates replicas of one shard.
func parseShards(spec string) ([][]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("-router requires -shards (';' separates shards, ',' separates replicas)")
	}
	var out [][]string
	for si, group := range strings.Split(spec, ";") {
		var replicas []string
		for _, u := range strings.Split(group, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			replicas = append(replicas, u)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-shards: shard %d has no replica URLs", si)
		}
		out = append(out, replicas)
	}
	return out, nil
}

// logging is a minimal request logger.
func logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Println(fmt.Sprintf("%s %s %v", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond)))
	})
}
