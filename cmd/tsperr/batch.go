package main

import (
	"fmt"
	"os"

	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/harness"
)

// batchItemJSON is one entry of the batch -json document; Report reuses the
// shared core.Report encoding, the same schema tsperrd serves.
type batchItemJSON struct {
	Index      int          `json:"index"`
	Name       string       `json:"name"`
	Key        string       `json:"key"`
	Dedup      bool         `json:"dedup,omitempty"`
	ElapsedSec float64      `json:"elapsed_sec"`
	Report     *core.Report `json:"report,omitempty"`
	Error      string       `json:"error,omitempty"`
}

type batchJSON struct {
	Items      []batchItemJSON `json:"items"`
	Computed   int             `json:"computed"`
	Deduped    int             `json:"deduped"`
	Failed     int             `json:"failed"`
	ElapsedSec float64         `json:"elapsed_sec"`
}

// runBatch executes a suite file (tsperr batch). Text mode streams one row
// per entry as it lands; JSON mode emits the whole document at the end.
// Exits 1 when any entry failed, 2 when the suite itself is unusable.
func runBatch(args []string) {
	a := newAnalysisFlags("batch", "[flags] suite.json (one suite file, no benchmark argument)")
	a.parse(args)
	if a.fs.NArg() != 1 {
		usageExit(a.fs)
	}
	suite, err := harness.LoadSuite(a.fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr batch: %v\n", err)
		os.Exit(cliutil.ExitUsage)
	}
	ctx, cancel := cliutil.Context(a.timeout)
	defer cancel()

	var onResult func(core.BatchItemResult)
	if !a.jsonOut {
		fmt.Println(harness.Table2Header())
		onResult = func(r core.BatchItemResult) {
			switch {
			case r.Err != nil:
				fmt.Printf("# %s: FAILED: %v\n", r.Name, r.Err)
			case r.Dedup:
				fmt.Printf("%s  (deduped)\n", harness.Table2Row(r.Report))
			default:
				fmt.Printf("%s  (%.2fs)\n", harness.Table2Row(r.Report), r.Elapsed.Seconds())
			}
		}
	}
	res, err := harness.RunSuite(ctx, suite, a.opts, a.scenarios, onResult)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr batch: %v\n", err)
		os.Exit(cliutil.ExitFailure)
	}
	if a.jsonOut {
		doc := batchJSON{
			Items:      make([]batchItemJSON, len(res.Items)),
			Computed:   res.Computed,
			Deduped:    res.Deduped,
			Failed:     res.Failed,
			ElapsedSec: res.Elapsed.Seconds(),
		}
		for i, r := range res.Items {
			doc.Items[i] = batchItemJSON{
				Index: r.Index, Name: r.Name, Key: r.Key, Dedup: r.Dedup,
				ElapsedSec: r.Elapsed.Seconds(), Report: r.Report,
			}
			if r.Err != nil {
				doc.Items[i].Error = r.Err.Error()
			}
		}
		printJSON(doc)
	} else {
		fmt.Printf("suite: %d entries, %d computed, %d deduped, %d failed in %.2fs\n",
			len(res.Items), res.Computed, res.Deduped, res.Failed, res.Elapsed.Seconds())
	}
	if res.Failed > 0 {
		os.Exit(cliutil.ExitFailure)
	}
}
