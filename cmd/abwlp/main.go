// Command abwlp answers availability queries from a JSON network
// description: it builds the topology, solves the exact Eq. 6 LP for
// the queried path (routing it first if only endpoints are given), and
// reports the optimal schedule plus all five distributed estimates.
//
// Usage:
//
//	abwlp < network.json
//	abwlp -i network.json -o answer.json
//
// Input format (see internal/netjson):
//
//	{
//	  "nodes": [{"x":0,"y":0},{"x":100,"y":0}],
//	  "background": [{"path":[0,1],"demand":2}],
//	  "query": {"path":[0,1]}            // or {"src":0,"dst":1,"metric":"average-e2eD"}
//	}
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"flag"

	"abw/internal/netjson"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abwlp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("i", "", "input JSON file (default: stdin)")
		out        = fs.String("o", "", "output JSON file (default: stdout)")
		cache      = fs.Bool("cache", false, "enable the memo cache (set-family reuse across the solve; answers are identical)")
		cacheBytes = fs.Int64("cachebytes", 0, "retained-bytes budget for cached set families (0 = default; implies -cache)")
		cacheDir   = fs.String("cachedir", "", "directory for the crash-safe on-disk set-family spill, reused across runs (implies -cache)")
		cachestats = fs.Bool("cachestats", false, "print memo-cache counters to stderr (implies -cache)")
		trace      = fs.Bool("trace", false, "record a per-stage trace (routing, enumeration, memo, LP) into the answer's \"trace\" block; the numeric answer is identical")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cacheBytesSet, cacheDirSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cachebytes":
			cacheBytesSet = true
		case "cachedir":
			cacheDirSet = true
		}
	})
	if cacheDirSet && *cacheDir == "" {
		fmt.Fprintln(stderr, "abwlp: -cachedir needs a non-empty directory")
		fs.Usage()
		return 2
	}

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, "abwlp:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "abwlp:", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "abwlp: closing output:", err)
			}
		}()
		w = f
	}

	spec, err := netjson.ParseSpec(r)
	if err != nil {
		fmt.Fprintln(stderr, "abwlp:", err)
		return 1
	}
	// -cachebytes and -cachedir imply -cache (netjson.SolveContext applies the
	// same rule to the spec fields) instead of being silently ignored.
	if *cache || *cachestats || cacheBytesSet || cacheDirSet {
		spec.Cache = true
	}
	if cacheBytesSet {
		spec.CacheBytes = *cacheBytes
	}
	if cacheDirSet {
		spec.CacheDir = *cacheDir
	}
	if *trace {
		spec.Trace = true
	}
	ans, err := netjson.SolveContext(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(stderr, "abwlp:", err)
		return 1
	}
	if err := netjson.WriteAnswer(w, ans); err != nil {
		fmt.Fprintln(stderr, "abwlp:", err)
		return 1
	}
	if *cachestats && ans.CacheStats != nil {
		st := ans.CacheStats
		fmt.Fprintf(stderr, "abwlp: cache: %d hits, %d misses, %d entries, %d bytes retained\n",
			st.Hits, st.Misses, st.Entries, st.Bytes)
	}
	return 0
}
