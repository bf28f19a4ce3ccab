// Command ziggyd serves the interactive Ziggy demo of paper Figure 5: a
// web page with a query box, the ranked characteristic views on the left
// and per-view explanations on the right.
//
// By default it preloads the three demo datasets. Additional CSV files can
// be registered with repeated -csv flags. One in-process engine serves
// them behind an admission queue, and a report cache answers repeated
// identical queries in ~µs (bounds: -cache-entries / -cache-bytes);
// /api/stats exposes the engine's and the cache's counters.
//
// The same binary scales past one process: `ziggyd -worker` runs a
// characterization worker — no datasets, tables are shipped to it by a
// front, content-addressed so each table crosses the wire once — and
// `ziggyd -peers host1:8081,host2:8081` runs a front that routes each table
// to its owning worker by the same rendezvous hash the in-process router
// uses. Repeat queries hit the owning worker's report cache without the
// table re-shipping, saturated workers shed with 503 + Retry-After, and
// unreachable workers fail over along the rendezvous ranking.
//
//	ziggyd -addr :8080
//	ziggyd -addr :8081 -worker
//	ziggyd -addr :8080 -peers 127.0.0.1:8081,127.0.0.1:8082
//	ziggyd -addr :8080 -datasets uscrime,boxoffice -csv extra.csv
//	ziggyd -addr :8080 -cache-entries 64 -cache-bytes 134217728
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/db"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
)

type csvList []string

func (c *csvList) String() string { return strings.Join(*c, ",") }

func (c *csvList) Set(v string) error {
	*c = append(*c, v)
	return nil
}

// options collects everything main parses from flags; buildHandler turns it
// into a ready handler so tests can drive the exact serving stack without a
// listener.
type options struct {
	datasets      string
	csvs          []string
	seed          uint64
	minTight      float64
	maxViews      int
	parallelism   int
	cacheEntries  int
	cacheBytes    int64
	worker        bool
	peers         string
	concurrency   int
	queueDepth    int
	approxDegrade bool
}

// params assembles the admission tuning the options describe (zero values
// keep the shard package defaults).
func (opts options) params() shard.Params {
	return shard.Params{Concurrency: opts.concurrency, QueueDepth: opts.queueDepth}
}

// config assembles the engine configuration the options describe.
func (opts options) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.MinTight = opts.minTight
	cfg.MaxViews = opts.maxViews
	cfg.Parallelism = opts.parallelism
	cfg.CacheEntries = opts.cacheEntries
	cfg.CacheBytes = opts.cacheBytes
	cfg.ApproxUnderPressure = opts.approxDegrade
	return cfg
}

// buildHandler assembles the serving stack the options describe: a worker
// (RPC endpoints over a fresh local router, fed tables by its front), or
// the demo server — served by one in-process engine by default, routed to
// remote workers with -peers.
func buildHandler(opts options, logger *log.Logger) (http.Handler, error) {
	if opts.worker && opts.peers != "" {
		return nil, fmt.Errorf("-worker and -peers are mutually exclusive (a worker does not route to other workers)")
	}
	if opts.worker {
		return buildWorker(opts, logger)
	}
	return buildServer(opts, logger)
}

// buildWorker assembles the worker stack: the worker RPC API over this
// process's own engine. No tables are loaded — fronts ship them,
// content-addressed, each at most once.
func buildWorker(opts options, logger *log.Logger) (http.Handler, error) {
	router, err := shard.NewWithParams(opts.config(), nil, opts.params())
	if err != nil {
		return nil, err
	}
	if logger != nil {
		logger.Printf("worker mode: awaiting table shipments")
	}
	return remote.NewWorker(router), nil
}

// buildServer registers the requested tables and wraps them in the demo
// server; logger may be nil for silence.
func buildServer(opts options, logger *log.Logger) (*server.Server, error) {
	catalog, err := buildCatalog(opts, logger)
	if err != nil {
		return nil, err
	}
	cfg := opts.config()
	var router *shard.Router
	if opts.peers != "" {
		var backends []shard.Backend
		for _, peer := range strings.Split(opts.peers, ",") {
			peer = strings.TrimSpace(peer)
			if peer == "" {
				continue
			}
			backends = append(backends, remote.NewClient(peer))
		}
		if len(backends) == 0 {
			return nil, fmt.Errorf("-peers lists no worker addresses")
		}
		router, err = shard.NewWithBackends(cfg, nil, backends)
		if err != nil {
			return nil, err
		}
		if logger != nil {
			logger.Printf("front mode: routing to %d remote workers", router.NumShards())
		}
	} else {
		router, err = shard.NewWithParams(cfg, nil, opts.params())
		if err != nil {
			return nil, err
		}
	}
	return server.New(catalog, router, logger), nil
}

// buildCatalog registers the built-in datasets and CSV files the options
// name; logger may be nil for silence.
func buildCatalog(opts options, logger *log.Logger) (*db.Catalog, error) {
	catalog := db.NewCatalog()
	for _, name := range strings.Split(opts.datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f, err := synth.ByName(name, opts.seed)
		if err != nil {
			return nil, err
		}
		if err := catalog.Register(f); err != nil {
			return nil, err
		}
		if logger != nil {
			logger.Printf("registered dataset %s", name)
		}
	}
	for _, path := range opts.csvs {
		f, err := csvio.ReadFile(path, csvio.Options{})
		if err != nil {
			return nil, err
		}
		if err := catalog.Register(f); err != nil {
			return nil, err
		}
		if logger != nil {
			logger.Printf("registered %s (%d rows × %d cols)", f.Name(), f.NumRows(), f.NumCols())
		}
	}
	if len(catalog.TableNames()) == 0 {
		return nil, fmt.Errorf("no tables registered; pass -datasets or -csv")
	}
	return catalog, nil
}

func main() {
	var csvs csvList
	addr := flag.String("addr", ":8080", "listen address")
	datasets := flag.String("datasets", "uscrime,boxoffice",
		"comma-separated built-in datasets to preload (uscrime, boxoffice, innovation); ignored by -worker")
	seed := flag.Uint64("seed", 42, "seed for the built-in datasets")
	minTight := flag.Float64("min-tight", 0.4, "tightness threshold")
	maxViews := flag.Int("max-views", 8, "maximum views per query")
	parallel := flag.Int("parallelism", 0, "engine worker count (0 = all CPUs, 1 = sequential)")
	cacheEntries := flag.Int("cache-entries", 0,
		"LRU entry bound per cache tier (0 = engine default)")
	cacheBytes := flag.Int64("cache-bytes", 0,
		"approximate byte bound per cache tier (0 = engine default)")
	concurrency := flag.Int("concurrency", 0,
		"characterizations the engine runs at once; further requests queue (0 = default)")
	queueDepth := flag.Int("queue-depth", 0,
		"admitted-but-waiting requests before load is shed with 503 (0 = default)")
	approxDegrade := flag.Bool("approx-under-pressure", false,
		"serve a flagged approximate answer instead of shedding when the engine saturates")
	worker := flag.Bool("worker", false,
		"run as a characterization worker: serve the /api/worker RPC API; tables are shipped by a -peers front")
	peers := flag.String("peers", "",
		"comma-separated worker addresses (host:port or http:// URLs); route characterizations to them instead of the in-process engine")
	flag.Var(&csvs, "csv", "CSV file to register (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "ziggyd: ", log.LstdFlags)
	handler, err := buildHandler(options{
		datasets:      *datasets,
		csvs:          csvs,
		seed:          *seed,
		minTight:      *minTight,
		maxViews:      *maxViews,
		parallelism:   *parallel,
		cacheEntries:  *cacheEntries,
		cacheBytes:    *cacheBytes,
		worker:        *worker,
		peers:         *peers,
		concurrency:   *concurrency,
		queueDepth:    *queueDepth,
		approxDegrade: *approxDegrade,
	}, logger)
	if err != nil {
		logger.Fatal(err)
	}
	// Listen explicitly so ":0" reports the chosen port — the two-process
	// smoke test (and scripts) parse it from the log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("serving on %s", ln.Addr())
	if err := http.Serve(ln, handler); err != nil {
		logger.Fatal(err)
	}
}
