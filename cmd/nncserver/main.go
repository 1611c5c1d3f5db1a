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
// The dataset flags (-n -m -d -hd -dist -seed, or -input) are the ones
// every `nnc` verb takes, so `nncserver -n=5000` serves from memory the
// objects `nnc build -n=5000 -out=objects.pg` wrote. With -disk the
// server fronts such a page file: queries run through the same engine over
// the buffer pool, and /objects endpoints answer 501 since the disk backend
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
// node over the union. Each shard call runs inside a fault envelope: a
// per-shard deadline (-shard-timeout), a hedged duplicate after the
// shard's p95 latency, three jittered retries backing off from that same
// delay, and replica failover behind a circuit breaker that opens after
// three consecutive failures and sends a half-open /healthz probe after
// -breaker-cooldown. Dead shards degrade the answer to HTTP 206 with an
// unreachable_shards count and Retry-After advice instead of failing the
// query. Router health appears under "cluster" in /healthz
// (server.ClusterHealth) and sd_router_* series in /metrics.
//
// Every backend serves behind the front door: request coalescing, a
// semantic result cache with precise invalidation (-cache-mb budget, 0
// for none), optional per-client rate limiting (-rate, -burst), a global
// in-flight ceiling (-max-inflight, negative for none) and
// Prometheus-format GET /metrics. Shed requests answer 429 with
// Retry-After. Every boot comes up warming: a bad command line exits 2
// before the port binds, then the port listens, /readyz answers 503 with
// the reason (indexing, opening the file, WAL replay, asking the shards)
// and the backend attaches behind the door when it is ready.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spatialdom/internal/cluster"
	"spatialdom/internal/dataio"
	"spatialdom/internal/diskindex"
	"spatialdom/internal/server"
	"spatialdom/internal/server/front"
)

func main() {
	var (
		src     dataio.Source
		addr    = flag.String("addr", ":8080", "listen address")
		disk    = flag.String("disk", "", "serve from a disk index page file built by `nnc build` instead of the in-memory dataset")
		mutable = flag.Bool("mutable", false, "open -disk writable: POST /insert and /delete commit through the WAL")
		frames  = flag.Int("frames", 256, "buffer pool frames for -disk")
		pprofOn = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060)")
		drain   = flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")

		router       = flag.Bool("router", false, "serve as a scatter-gather router over -shards instead of local data")
		shardsSpec   = flag.String("shards", "", "router shard replicas: ';' separates shards, ',' separates replicas (e.g. \"http://a,http://b;http://c\")")
		shardTimeout = flag.Duration("shard-timeout", 2*time.Second, "router: per-shard attempt deadline")
		brCooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "router: open-breaker cooldown before a half-open probe")

		cacheMB     = flag.Int("cache-mb", 64, "semantic result cache budget in MiB; 0 disables the cache")
		rate        = flag.Float64("rate", 0, "per-client requests/sec (token bucket); 0 disables rate limiting")
		burst       = flag.Int("burst", 0, "per-client burst; 0 means 2x -rate")
		maxInflight = flag.Int("max-inflight", 0, "global in-flight ceiling; 0 means 16x GOMAXPROCS, negative disables")
	)
	src.Flags(flag.CommandLine)
	flag.Parse()

	// open produces the backend, in the boot goroutine, while the listener
	// already answers /readyz with 503 and the reason; a backend that is an
	// io.Closer (a disk index) is closed after the drain. Everything the
	// command line can get wrong is checked here, before the port binds.
	var (
		reason string
		open   func() (server.Backend, error)
		rt     *cluster.Router
	)
	switch {
	case *router:
		shardURLs, err := cluster.ParseShards(*shardsSpec)
		if err != nil {
			usage(err)
		}
		rt, err = cluster.New(cluster.Config{
			Shards:          shardURLs,
			ShardTimeout:    *shardTimeout,
			BreakerCooldown: *brCooldown,
		})
		if err != nil {
			usage(err)
		}
		reason = fmt.Sprintf("asking %d shard(s) what they hold", len(shardURLs))
		open = func() (server.Backend, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := rt.Refresh(ctx); err != nil {
				return nil, err
			}
			log.Printf("routing %d objects across %d shard(s)", rt.Len(), len(shardURLs))
			return rt, nil
		}
	case *disk != "" && *mutable:
		reason = "wal replay: " + *disk
		open = func() (server.Backend, error) {
			idx, err := diskindex.OpenFileMutable(*disk, &diskindex.MutableOptions{Frames: *frames})
			if err != nil {
				return nil, err
			}
			if rec := idx.WALRecovery(); rec != nil && rec.CommittedTxs > 0 {
				log.Printf("recovered %d committed transaction(s) from the WAL", rec.CommittedTxs)
			}
			log.Printf("serving mutable disk index %s (epoch %d)", idx, idx.Epoch())
			// Close checkpoints, so a clean shutdown leaves an empty WAL.
			return idx, nil
		}
	case *disk != "":
		reason = "opening " + *disk
		open = func() (server.Backend, error) {
			idx, err := diskindex.OpenFile(*disk, *frames)
			if err != nil {
				return nil, err
			}
			log.Printf("serving disk index %s", idx)
			return idx, nil
		}
	default:
		ds, label, err := src.Load()
		if err != nil {
			usage(err)
		}
		reason = "indexing " + label
		objs := ds.Objects // not ds: the closure outlives the boot, the centres need not
		open = func() (server.Backend, error) {
			store, err := front.NewMemStore(objs)
			if err != nil {
				return nil, err
			}
			log.Printf("serving %d objects of %s from memory", len(objs), label)
			return store, nil
		}
	}

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

	srv := server.NewWarming(reason)
	fh := front.NewHandler(srv, nil, front.Config{RatePerSec: *rate, Burst: *burst, MaxInFlight: *maxInflight})
	srv.SetFront(fh)
	if rt != nil {
		rt.RegisterMetrics(fh.Registry())
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           logging(fh),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// booted carries the backend from the boot goroutine to the shutdown
	// path.
	booted := make(chan server.Backend, 1)
	go func() {
		b, err := open()
		if err != nil {
			log.Fatal(err)
		}
		doorCfg := front.DoorConfig{CacheBytes: int64(*cacheMB) << 20}
		if *cacheMB <= 0 {
			doorCfg.CacheBytes = -1
		}
		door := front.NewDoor(b, doorCfg)
		fh.AttachDoor(door)
		srv.Attach(door)
		booted <- b
	}()

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
		select {
		case b := <-booted:
			if c, ok := b.(io.Closer); ok {
				if err := c.Close(); err != nil {
					log.Printf("closing the index: %v", err)
				}
			}
		default: // still warming: nothing is open yet
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		log.Printf("bye")
	}
}

// usage reports a command line nothing can be served from and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "nncserver:", err)
	os.Exit(2)
}

// logging is a minimal request logger.
func logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Println(fmt.Sprintf("%s %s %v", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond)))
	})
}
