// Package api is a public package of the root module, outside internal/:
// its exports are candidates like an internal package's.
package api

// Options configures Run.
type Options struct {
	Verbose bool // want `api.Options.Verbose is read but only tests write it`
}

// Run is called from the separate user module.
func Run(o Options) int {
	if o.Verbose {
		return 1
	}
	return 0
}

// Reset is called only from api_test.go.
func Reset() {} // want `api.Reset is exported but no non-test code uses it`
