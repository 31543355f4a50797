// Package support is imported only by tests, so its exports are exempt.
package support

// Helper is a test helper.
func Helper(int) {}
