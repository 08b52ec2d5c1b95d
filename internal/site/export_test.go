package site

// WireMissBudget exposes the wire failure-detector budget to the
// external test package.
const WireMissBudget = wireMissBudget
