// The directives fixture exercises the //qnetlint: comment grammar:
// malformed directives are diagnostics themselves, surfaced by the
// designated grammar reporter (detrand) in any package, and never suppress
// anything.
package lintfix

//qnetlint:frobnicate misspelled verb // want `unknown qnetlint directive verb frobnicate`

//qnetlint:allow detrnd misspelled check name // want `allow directive names unknown check detrnd`
