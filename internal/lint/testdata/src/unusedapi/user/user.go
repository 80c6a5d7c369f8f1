// Package user makes some of package api's exports used.
package user

import "optima/internal/lint/testdata/src/unusedapi/api"

func use() int {
	var m api.Meter
	return api.Used() + m.Count()
}
