// Package transport is the determinism fixture for an exact-path scope:
// the package itself is under the contract.
package transport

import "time"

func stamp() time.Time {
	return time.Now() // want `call to time.Now reads the wall clock`
}
