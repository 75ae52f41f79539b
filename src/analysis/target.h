/**
 * @file
 * Target GPU description. One struct carries both the constraints the
 * mapping analysis needs (warp size, block limits, DOP window) and the
 * parameters the performance simulator needs (bandwidth, latency, clocks).
 * The default configuration models the NVIDIA Tesla K20c used in the
 * paper's evaluation (Section VI-B).
 */

#ifndef NPP_ANALYSIS_TARGET_H
#define NPP_ANALYSIS_TARGET_H

#include <cstdint>
#include <string>

namespace npp {

/**
 * Hardware parameters of the simulated GPU.
 */
struct DeviceConfig
{
    std::string name = "Tesla K20c (simulated)";

    /** @name Execution resources
     *  @{
     */
    int numSMs = 13;
    int warpSize = 32;
    int maxThreadsPerBlock = 1024;
    int maxThreadsPerSM = 2048;
    int maxBlocksPerSM = 16;
    int maxBlockDim[4] = {1024, 1024, 64, 64}; //!< per logical dim x,y,z,w
    /** Double-precision throughput lanes per SM (K20c: 64 DP cores). */
    int dpLanesPerSM = 64;
    double clockGHz = 0.706;
    /** @} */

    /** @name Memory system
     *  @{
     */
    int64_t sharedMemPerSM = 48 * 1024;
    int64_t sharedMemPerBlockLimit = 48 * 1024;
    double dramBandwidthGBs = 208.0;
    /** Global-memory load-to-use latency. */
    double memLatencyCycles = 400.0;
    /** Size of one coalesced memory transaction. */
    int transactionBytes = 128;
    int sharedMemBanks = 32;
    /** Per-SM L1/read cache capacity used by the line-reuse model: a
     *  thread's repeated accesses to the same transaction line are
     *  served from cache only while the resident threads' lines fit. */
    int64_t l1CacheBytes = 48 * 1024;
    /** Host-device interconnect (PCIe gen2 x16 effective). */
    double pcieBandwidthGBs = 6.0;
    /** @} */

    /** @name Software costs
     *  @{
     */
    double kernelLaunchOverheadUs = 5.0;
    /** Cycles per block for scheduling/dispatch bookkeeping; penalizes
     *  launching very large numbers of tiny blocks. */
    double blockScheduleCycles = 100.0;
    /** Cost of one in-kernel malloc call (device heap allocation is
     *  notoriously slow: a global heap lock serializes allocating
     *  threads, costing microseconds per call). */
    double deviceMallocCycles = 20000.0;
    /** How many in-flight mallocs the heap sustains concurrently. */
    double mallocParallelism = 4.0;
    /** Cost of one __syncthreads() per block-wide barrier. */
    double syncthreadsCycles = 40.0;
    /** Traffic/issue tax of the generated multidimensional-array
     *  wrappers (offset/stride field loads, dynamic physical-index
     *  computation) relative to raw-pointer code — the ~20% gap the
     *  paper reports on Nearest Neighbor. */
    double wrapperTrafficFactor = 1.12;
    /** @} */

    /** @name Analysis parameters (Section IV)
     *  @{
     */
    /** Soft global constraint: minimum threads per block (Table II). */
    int minBlockSize = 64;
    /** Minimum DOP: enough threads to fill every SM (13 * 2048). */
    int64_t minDop() const
    {
        return static_cast<int64_t>(numSMs) * maxThreadsPerSM;
    }
    /** Maximum DOP: cap on thread blocks (100x the minimum, Sec. IV-D). */
    int64_t maxDop() const { return 100 * minDop(); }
    /** Number of logical dimensions the search may use. */
    int maxLogicalDims = 4;
    /** @} */

    /** Cycles available per second. */
    double cyclesPerSecond() const { return clockGHz * 1e9; }
};

/** The default target used throughout the experiments. */
DeviceConfig teslaK20c();

/** The Fermi-class part the paper's background section describes
 *  (14 SMs, 1536 threads/SM, 144 GB/s): used by the device-sensitivity
 *  tests to check that mapping decisions adapt to the target. */
DeviceConfig teslaC2050();

/**
 * A homogeneous fleet of simulated devices. The multi-device layer
 * (analysis/partition.h, sim/fleet.h) shards one program's root domain
 * across `deviceCount` copies of `device`; shard results travel over a
 * peer link (NVLink/PCIe-P2P class) modeled as bandwidth + fixed
 * per-transfer latency, and reduction roots pay a device-count-sized
 * combine on top.
 */
struct FleetConfig
{
    DeviceConfig device;

    /** Number of identical devices (1 = today's single-device path). */
    int deviceCount = 1;

    /** Peer-to-peer link bandwidth between devices. The K20c-era
     *  default is PCIe P2P through a shared switch: a bit above the
     *  host link's effective 6 GB/s but far below DRAM. */
    double peerBandwidthGBs = 10.0;

    /** Fixed per-transfer latency on the peer link (DMA setup + sync). */
    double peerLatencyUs = 8.0;
};

/** Largest fleet a caller may request (nppc --devices, the serve
 *  protocol's "devices" field). */
inline constexpr int kMaxFleetDevices = 32;

/** N simulated K20c devices with the default peer link. */
FleetConfig fleetK20c(int deviceCount);

} // namespace npp

#endif // NPP_ANALYSIS_TARGET_H
