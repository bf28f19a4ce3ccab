// Command zigsh is an interactive exploration shell: the trial-and-error
// loop the paper describes, in a terminal. Type a SQL selection and Ziggy
// characterizes it; shell commands (prefixed with backslash) inspect tables,
// plot views and tune the engine.
//
//	zigsh -dataset uscrime
//	ziggy> SELECT * FROM uscrime WHERE crime_violent_rate >= 1300
//	ziggy> \plot 1
//	ziggy> \tight 0.6
//	ziggy> \quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	ziggy "repro"
	"repro/internal/synth"
)

func main() {
	dataset := flag.String("dataset", "uscrime", "built-in dataset: uscrime, boxoffice, innovation")
	csvPath := flag.String("csv", "", "CSV file to load instead of a built-in dataset")
	seed := flag.Uint64("seed", 42, "seed for built-in datasets")
	flag.Parse()

	sh, err := newShell(*dataset, *csvPath, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zigsh:", err)
		os.Exit(1)
	}
	fmt.Println("Ziggy exploration shell — enter a SQL selection, \\help for commands.")
	if err := sh.repl(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "zigsh:", err)
		os.Exit(1)
	}
}

// shell holds the session state of one exploration.
type shell struct {
	session *ziggy.Session
	cfg     ziggy.Config
	last    *ziggy.QueryReport
}

func newShell(dataset, csvPath string, seed uint64) (*shell, error) {
	cfg := ziggy.DefaultConfig()
	session, err := ziggy.New(cfg)
	if err != nil {
		return nil, err
	}
	if csvPath != "" {
		if _, err := session.RegisterCSV(csvPath); err != nil {
			return nil, err
		}
	} else {
		f, err := synth.ByName(dataset, seed)
		if err != nil {
			return nil, err
		}
		if err := session.Register(f); err != nil {
			return nil, err
		}
	}
	return &shell{session: session, cfg: cfg}, nil
}

// repl reads lines until EOF or \quit.
func (s *shell) repl(in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "ziggy> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == `\quit` || line == `\q` {
			return nil
		}
		if err := s.execute(line, out); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

// execute dispatches one input line.
func (s *shell) execute(line string, out io.Writer) error {
	if !strings.HasPrefix(line, `\`) {
		return s.characterize(line, out)
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case `\help`, `\h`:
		fmt.Fprint(out, `commands:
  SELECT ...            characterize a selection (predicate columns excluded)
  \tables               list tables and shapes
  \cols <table>         list a table's columns
  \plot <rank>          ASCII chart of view <rank> from the last report
  \tight <value>        set MIN_tight (current shown by \config)
  \dim <value>          set the maximum view size D
  \views <value>        set the maximum number of views
  \robust on|off        rank-based statistics
  \extended on|off      extended Zig-Components
  \config               show the engine configuration
  \stats                show cache and per-backend counters
  \quit                 leave
`)
		return nil

	case `\tables`:
		for _, name := range s.session.Tables() {
			f, _ := s.session.Table(name)
			fmt.Fprintf(out, "%s: %d rows × %d columns\n", name, f.NumRows(), f.NumCols())
		}
		return nil

	case `\cols`:
		if len(fields) < 2 {
			return fmt.Errorf(`usage: \cols <table>`)
		}
		f, ok := s.session.Table(fields[1])
		if !ok {
			return fmt.Errorf("unknown table %q", fields[1])
		}
		for _, c := range f.Columns() {
			fmt.Fprintf(out, "  %-30s %s\n", c.Name(), c.Kind())
		}
		return nil

	case `\plot`:
		if s.last == nil {
			return fmt.Errorf("no report yet; run a query first")
		}
		rank := 1
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				return fmt.Errorf("invalid rank %q", fields[1])
			}
			rank = v
		}
		if rank > len(s.last.Views) {
			return fmt.Errorf("report has only %d views", len(s.last.Views))
		}
		view := s.last.Views[rank-1]
		chart, err := ziggy.PlotView(s.last.Base, s.last.Mask, view.Columns, 60, 16)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, chart)
		return nil

	case `\tight`:
		return s.setFloat(fields, out, func(v float64) { s.cfg.MinTight = v })
	case `\dim`:
		return s.setInt(fields, out, func(v int) { s.cfg.MaxDim = v })
	case `\views`:
		return s.setInt(fields, out, func(v int) { s.cfg.MaxViews = v })
	case `\robust`:
		return s.setBool(fields, out, func(v bool) { s.cfg.Robust = v })
	case `\extended`:
		return s.setBool(fields, out, func(v bool) { s.cfg.Extended = v })

	case `\config`:
		fmt.Fprintf(out, "min_tight=%.2f max_dim=%d max_views=%d robust=%v extended=%v alpha=%g\n",
			s.cfg.MinTight, s.cfg.MaxDim, s.cfg.MaxViews, s.cfg.Robust, s.cfg.Extended, s.cfg.Alpha)
		return nil

	case `\stats`:
		ss := s.session.ShardStats()
		printTier := func(name string, t ziggy.CacheSnapshot) {
			fmt.Fprintf(out, "%-9s hits=%d misses=%d evictions=%d deduped=%d entries=%d bytes=%d\n",
				name, t.Hits, t.Misses, t.Evictions, t.Deduped, t.Entries, t.Bytes)
		}
		totals := ss.Totals()
		printTier("prepared", totals.Prepared)
		printTier("reports", totals.Reports)
		for _, sh := range ss.Shards {
			fmt.Fprintf(out, "shard %-3d requests=%d rejected=%d inflight=%d queued=%d prepared{hits=%d misses=%d entries=%d}",
				sh.Shard, sh.Requests, sh.Rejected, sh.Inflight, sh.Queued,
				sh.Prepared.Hits, sh.Prepared.Misses, sh.Prepared.Entries)
			if sh.Kind == "remote" {
				fmt.Fprintf(out, " shipped{tables=%d chunks=%d bytes=%d}",
					sh.TablesShipped, sh.ChunksShipped, sh.BytesShipped)
			}
			fmt.Fprintln(out)
		}
		return nil

	default:
		return fmt.Errorf("unknown command %s (try \\help)", fields[0])
	}
}

// rebuild recreates the session engine after a config change, keeping the
// registered tables.
func (s *shell) rebuild() error {
	fresh, err := ziggy.New(s.cfg)
	if err != nil {
		return err
	}
	for _, name := range s.session.Tables() {
		f, _ := s.session.Table(name)
		if err := fresh.Register(f); err != nil {
			return err
		}
	}
	s.session = fresh
	return nil
}

func (s *shell) setFloat(fields []string, out io.Writer, apply func(float64)) error {
	if len(fields) < 2 {
		return fmt.Errorf("missing value")
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return fmt.Errorf("invalid value %q", fields[1])
	}
	apply(v)
	if err := s.rebuild(); err != nil {
		return err
	}
	fmt.Fprintln(out, "ok")
	return nil
}

func (s *shell) setInt(fields []string, out io.Writer, apply func(int)) error {
	if len(fields) < 2 {
		return fmt.Errorf("missing value")
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Errorf("invalid value %q", fields[1])
	}
	apply(v)
	if err := s.rebuild(); err != nil {
		return err
	}
	fmt.Fprintln(out, "ok")
	return nil
}

func (s *shell) setBool(fields []string, out io.Writer, apply func(bool)) error {
	if len(fields) < 2 || (fields[1] != "on" && fields[1] != "off") {
		return fmt.Errorf("usage: %s on|off", fields[0])
	}
	apply(fields[1] == "on")
	if err := s.rebuild(); err != nil {
		return err
	}
	fmt.Fprintln(out, "ok")
	return nil
}

// characterize runs a query and prints its views.
func (s *shell) characterize(sql string, out io.Writer) error {
	pred, err := ziggy.PredicateColumns(sql)
	if err != nil {
		return err
	}
	rep, err := s.session.CharacterizeOpts(sql, ziggy.Options{ExcludeColumns: pred})
	if err != nil {
		return err
	}
	s.last = rep
	fmt.Fprintf(out, "%d/%d rows · prep %v · search %v\n",
		rep.SelectedRows, rep.TotalRows,
		rep.Timings.Preparation.Round(1_000_000), rep.Timings.Search.Round(1_000_000))
	for i, v := range rep.Views {
		marker := " "
		if v.Significant {
			marker = "*"
		}
		fmt.Fprintf(out, "%2d.%s %-45s score %.2f\n", i+1, marker,
			strings.Join(v.Columns, " × "), v.Score)
		fmt.Fprintf(out, "     %s\n", v.Explanation)
	}
	if len(rep.Views) == 0 {
		fmt.Fprintln(out, "no views; try \\tight with a lower value")
	}
	return nil
}
