// seedsweep prints, for every experiment value in the tango-bench suite
// reports (-report) named on its command line, the mean and the
// min–max across the reports. scripts/seed_sweep.sh runs it over one
// report per seed.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

func main() {
	vals := map[string][]float64{} // "<experiment> <value>" -> one sample per report
	for _, path := range os.Args[1:] {
		var r struct {
			Experiments []struct {
				ID     string             `json:"id"`
				Values map[string]float64 `json:"values"`
			} `json:"experiments"`
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedsweep: %s: %v\n", path, err)
			os.Exit(1)
		}
		for _, e := range r.Experiments {
			for k, v := range e.Values {
				vals[e.ID+" "+k] = append(vals[e.ID+" "+k], v)
			}
		}
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-36s %10s %10s %10s %3s\n", "experiment value", "mean", "min", "max", "n")
	for _, k := range keys {
		sum := 0.0
		for _, v := range vals[k] {
			sum += v
		}
		n := len(vals[k])
		fmt.Printf("%-36s %10.6g %10.6g %10.6g %3d\n", k, sum/float64(n), slices.Min(vals[k]), slices.Max(vals[k]), n)
	}
}
