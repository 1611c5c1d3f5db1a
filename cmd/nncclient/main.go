// Command nncclient queries a running nncserver.
//
// Usage:
//
//	nncclient -addr=http://localhost:8080 -op=PSD -q="5000,5000,5000;5100,5050,4900"
//	nncclient -addr=http://localhost:8080 -health
//
// The client is a well-behaved citizen of a shedding or degraded server:
// 429 and 503 answers are retried after the server's Retry-After delay
// (capped, at most -retries times) instead of hammering a hot endpoint,
// and a 206 partial answer from a degraded cluster is retried the same
// way in the hope a breaker probe readmits the dead shard — if retries
// run out, the partial answer is printed with a warning rather than
// discarded. When the server sends no usable Retry-After, the client
// falls back to its own capped exponential schedule instead of a
// fixed 1s.
//
// Against a scatter-gather deployment, -smoke -shards="a,b;c,d" probes
// the router and every shard replica's /healthz and prints a liveness
// table (';' separates shards, ',' separates replicas — the same grammar
// nncserver -shards takes).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"spatialdom/internal/cluster"
	"spatialdom/internal/server"
)

// maxRetryAfter caps how long a single Retry-After is honored, so a
// misconfigured server cannot park the client for minutes.
const maxRetryAfter = 10 * time.Second

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "nncserver base URL")
		op      = flag.String("op", "PSD", "operator: SSD, SSSD, PSD, FSD, F+SD")
		k       = flag.Int("k", 1, "k-NN candidates")
		metric  = flag.String("metric", "", "metric: euclidean, manhattan, chebyshev")
		q       = flag.String("q", "", "query instances, e.g. \"1,2,3;4,5,6\"")
		health  = flag.Bool("health", false, "just check /healthz")
		retries = flag.Int("retries", 3, "max retries after a 429/503/206 (honoring Retry-After)")
		smoke   = flag.Bool("smoke", false, "probe /healthz on -addr (and every -shards replica) and print a liveness table")
		shards  = flag.String("shards", "", "shard replicas for -smoke: ';' separates shards, ',' separates replicas")
	)
	flag.Parse()

	client := &http.Client{Timeout: 30 * time.Second}
	if *smoke {
		if !runSmoke(client, *addr, *shards) {
			os.Exit(1)
		}
		return
	}
	if *health {
		resp, err := client.Get(*addr + "/healthz")
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(os.Stdout, resp.Body)
		fmt.Println()
		return
	}

	instances, err := parseInstances(*q)
	if err != nil {
		fatal(err)
	}
	var out server.QueryResponse
	post(client, *addr+"/query", server.QueryRequest{Instances: instances, Operator: *op, K: *k, Metric: *metric}, &out, *retries)
	fmt.Printf("%s (k=%d): %d candidates, %d objects examined, %dµs server-side\n",
		out.Operator, out.K, len(out.Candidates), out.Examined, out.ElapsedUS)
	if out.Incomplete {
		if out.UnreachableShards > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: partial answer — %d shard(s) unreachable\n", out.UnreachableShards)
		} else {
			fmt.Fprintln(os.Stderr, "WARNING: partial answer — parts of the index were unreadable")
		}
	}
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tid\tlabel\tmin dist\tdominators")
	for i, c := range out.Candidates {
		fmt.Fprintf(tw, "%d\t%d\t%s\t%.2f\t%d\n", i+1, c.ID, c.Label, c.MinDist, c.Dominators)
	}
	tw.Flush()
}

// post sends req as the JSON body, honoring Retry-After with capped
// backoff up to retries attempts, and decodes a 2xx answer into out; any
// other outcome is fatal. Three statuses are retried: 429 (shedding), 503
// (warming/unavailable), and 206 — a degraded cluster's partial answer,
// retried in the hope a breaker probe readmits the dead shard. A 206 that
// survives every retry is still a valid (flagged) answer, so it is
// decoded, not failed.
func post(client *http.Client, url string, req, out any, retries int) {
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fatal(err)
		}
		if attempt < retries {
			switch resp.StatusCode {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				wait := retryAfter(resp, attempt)
				fmt.Fprintf(os.Stderr, "server unavailable (%s), retrying in %v (%d/%d)\n",
					strings.TrimSpace(string(raw)), wait, attempt+1, retries)
				time.Sleep(wait)
				continue
			case http.StatusPartialContent:
				wait := retryAfter(resp, attempt)
				fmt.Fprintf(os.Stderr, "partial answer (degraded cluster), retrying in %v (%d/%d)\n",
					wait, attempt+1, retries)
				time.Sleep(wait)
				continue
			}
		}
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			fatal(fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(raw))))
		}
		if err := json.Unmarshal(raw, out); err != nil {
			fatal(err)
		}
		return
	}
}

// retryAfter parses the Retry-After header (whole seconds), capped to
// maxRetryAfter. When the header is absent, zero, or unparsable, the
// client falls back to its own capped exponential schedule (250ms, 500ms,
// 1s, ...) rather than a fixed 1s — an absent header means the server has
// no recovery estimate, and hammering it every second helps nobody.
func retryAfter(resp *http.Response, attempt int) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		if attempt > 6 { // 250ms << 6 already exceeds the cap
			return maxRetryAfter
		}
		d := 250 * time.Millisecond << attempt
		if d > maxRetryAfter {
			d = maxRetryAfter
		}
		return d
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// runSmoke probes /healthz on the router and every shard replica and
// prints a liveness table. Returns false when anything is down or
// degraded, so scripts can gate a deployment on the exit code.
func runSmoke(client *http.Client, addr, shardsSpec string) bool {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "target\trole\tstatus\tdetail")
	ok := smokeOne(tw, client, addr, "router")
	if shardsSpec != "" {
		groups, err := cluster.ParseShards(shardsSpec)
		if err != nil {
			fatal(err)
		}
		for si, replicas := range groups {
			for _, u := range replicas {
				if !smokeOne(tw, client, u, fmt.Sprintf("shard %d", si)) {
					ok = false
				}
			}
		}
	}
	tw.Flush()
	return ok
}

// smokeOne probes one /healthz and prints its row.
func smokeOne(tw *tabwriter.Writer, client *http.Client, base, role string) bool {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		fmt.Fprintf(tw, "%s\t%s\tDOWN\t%v\n", base, role, err)
		return false
	}
	defer resp.Body.Close()
	var body server.Health
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		fmt.Fprintf(tw, "%s\t%s\tBAD\tunparsable healthz: %v\n", base, role, err)
		return false
	}
	detail := "no dataset"
	if body.Objects != nil {
		detail = fmt.Sprintf("%d objects", *body.Objects)
	}
	if body.Reason != "" {
		detail += ", " + body.Reason
	}
	if body.Cluster != nil {
		open := 0
		total := 0
		for _, sh := range body.Cluster.Shards {
			for _, r := range sh.Replicas {
				total++
				if r.Breaker != "closed" {
					open++
				}
			}
		}
		detail += fmt.Sprintf(", %d/%d replica breakers closed", total-open, total)
	}
	healthy := resp.StatusCode == http.StatusOK && body.Status == "ok"
	state := strings.ToUpper(body.Status)
	if state == "" {
		state = resp.Status
	}
	fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", base, role, state, detail)
	return healthy
}

// parseInstances parses "x1,x2,...;y1,y2,..." into rows.
func parseInstances(s string) ([][]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("missing -q query instances")
	}
	var out [][]float64
	for _, row := range strings.Split(s, ";") {
		var pt []float64
		for _, cell := range strings.Split(row, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				return nil, fmt.Errorf("bad coordinate %q", cell)
			}
			pt = append(pt, v)
		}
		out = append(out, pt)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
