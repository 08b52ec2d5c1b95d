package site

// HeartbeatInterval exposes every wire central's tick period to the
// external test package.
const HeartbeatInterval = heartbeatInterval
