#pragma once
// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum ADIOS2/HDF5-class containers use for end-to-end integrity.  The
// miniBP v5 format stores one CRC per data chunk and per metadata block so
// torn writes and silent bit flips are *detectable* on read (the corruption
// failure mode the paper reports beyond 20k ranks).
//
// Two kernels compute the same function.  The portable one is slice-by-8:
// eight 256-entry tables fold eight input bytes per step.  On x86-64 CPUs
// that report SSE4.2 at run time, crc32c() uses the `crc32` instruction
// instead, eight bytes per instruction.  The choice is made once from the
// CPU, not configured; both kernels return identical values for any input.

#include <cstdint>
#include <span>

namespace bitio {

/// CRC32C of `data`, continuing from `seed` (pass the previous return value
/// to checksum a logical stream in pieces; start with 0).  Uses the fastest
/// kernel this CPU supports.
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

/// The portable slice-by-8 kernel, whatever the CPU supports (tests and
/// benchmarks compare it with the dispatched path).
std::uint32_t crc32c_slice8(std::span<const std::uint8_t> data,
                            std::uint32_t seed = 0);

/// True when crc32c() runs on the SSE4.2 `crc32` instruction.
bool crc32c_hardware();

}  // namespace bitio
