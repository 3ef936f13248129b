// Package tcp is the determinism fixture for a subpackage of an
// exact-path scope: it stays outside the contract.
package tcp

import "time"

func stamp() time.Time {
	return time.Now()
}
