// Contiguous mapped segment hosting the runtime's relocatable metadata.
//
// Every structure the hms layer manages — registry slot table, data-object
// chunk arrays, alias tables, arena block metadata — lives inside one
// Segment and references other structures only through self-relative
// OffsetPtrs (src/common/offset_ptr.hpp) or segment-relative offsets. The
// whole image can therefore be copied, remapped at a different base
// address, or attached from another process, and a walker still resolves
// every reference. This is the substrate the ROADMAP's node-wide tiering
// daemon mounts on: today the mapping is an anonymous MAP_SHARED region
// (fork-shareable), and the file-backed constructor places the same layout
// in /dev/shm for unrelated processes to shm_open.
//
// The internal allocator is bump-plus-freelist: fresh allocations advance a
// bump offset; freed blocks go onto power-of-two size-class freelists (one
// first-fit list for large blocks) and are reused exactly. Allocation
// metadata (one 16-byte header per block) and the freelist links live
// inside the segment itself, so an attached copy sees a complete heap.
//
// Thread safety: every public method is serialized by a process-local
// mutex. Cross-*process* synchronization is out of scope here — the
// single-writer (owning runtime) / read-only-walker (tools, relocation
// tests, future daemon clients) split is the supported sharing model until
// the futex-based daemon protocol lands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace tahoe::hms {

/// Fixed header at offset 0 of every segment image. Plain integers only —
/// the header must be readable from any mapping of the bytes.
struct SegmentHeader {
  static constexpr std::uint64_t kMagic = 0x5461686f65536567ULL;  // "TahoeSeg"
  static constexpr std::uint32_t kVersion = 1;
  /// Power-of-two size classes: 16 B ... 64 KiB; larger blocks go on one
  /// first-fit list (kLargeList).
  static constexpr std::size_t kNumClasses = 13;

  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t bytes = 0;        ///< mapped size recorded at creation
  std::uint64_t bump = 0;         ///< next fresh offset (grows upward)
  std::uint64_t root = 0;         ///< offset of the owner's root struct (0 = unset)
  std::uint64_t live_allocs = 0;  ///< blocks currently handed out
  std::uint64_t live_bytes = 0;   ///< payload bytes currently handed out
  std::uint64_t freelist_blocks = 0;  ///< blocks parked on freelists
  std::uint64_t freelist_bytes = 0;   ///< payload bytes parked on freelists
  std::uint64_t free_heads[kNumClasses] = {};  ///< per-class freelist heads
  std::uint64_t large_head = 0;                ///< first-fit list, blocks > 64 KiB
};

/// One mapped segment. Move-only; the destructor unmaps (and, for
/// shm-backed segments created here, unlinks) the region. Attached views
/// never own the bytes.
class Segment {
 public:
  /// Anonymous MAP_SHARED mapping of `bytes` (rounded up to the page
  /// size). Shared with forked children; pages are allocated lazily, so a
  /// generous reservation costs only what is actually touched.
  explicit Segment(std::uint64_t bytes);

  /// File-backed segment in /dev/shm (`shm_open(name)` + ftruncate +
  /// MAP_SHARED): the layout unrelated processes will attach. The name
  /// must start with '/' (shm_open convention). Unlinked on destruction.
  Segment(const std::string& shm_name, std::uint64_t bytes);

  /// Non-owning view over an existing image (a copied segment, a mapping
  /// of a /dev/shm file, a forked parent's region). Validates the magic,
  /// version and recorded size against `bytes` and throws ContractError on
  /// mismatch — a walker must never interpret foreign bytes.
  static Segment attach(void* image, std::uint64_t bytes);

  ~Segment();
  Segment(Segment&& o) noexcept;
  Segment& operator=(Segment&& o) noexcept;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  /// Allocate `bytes` (16-byte aligned). Returns nullptr when the segment
  /// is exhausted or an armed FaultInjector fires the SegmentAlloc site.
  void* alloc(std::uint64_t bytes);

  /// Resize an allocation. Same-class resizes return `p` unchanged; larger
  /// ones allocate-copy-free. nullptr on exhaustion (the original block is
  /// untouched). realloc(nullptr, n) == alloc(n).
  void* realloc(void* p, std::uint64_t bytes);

  /// Return a block to its size-class freelist. Never fails.
  void free(void* p);

  // ---- address <-> offset ------------------------------------------------
  std::byte* base() const noexcept { return base_; }
  std::uint64_t size() const noexcept { return bytes_; }
  bool contains(const void* p) const noexcept {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + bytes_;
  }
  std::uint64_t offset_of(const void* p) const;
  /// Address of the `bytes` bytes at `offset`; throws ContractError unless
  /// all of them lie inside the mapping.
  void* at(std::uint64_t offset, std::uint64_t bytes = 1) const;

  template <typename T>
  T* at_as(std::uint64_t offset) const {
    return static_cast<T*>(at(offset, sizeof(T)));
  }

  /// Offset of the owner's root structure (e.g. the registry's slot-table
  /// header), so an attached view can find it without out-of-band state.
  void set_root(std::uint64_t offset);
  std::uint64_t root() const;

  // ---- stats (hms.segment.* counters read these) -------------------------
  std::uint64_t used() const;            ///< bump high-water mark in bytes
  std::uint64_t live_allocations() const;
  std::uint64_t live_bytes() const;
  std::uint64_t freelist_blocks() const;
  std::uint64_t freelist_bytes() const;

  bool owning() const noexcept { return owning_; }
  /// Name passed to the shm constructor; empty for anonymous/attached.
  const std::string& shm_name() const noexcept { return shm_name_; }

  const SegmentHeader& header() const { return *header_; }

 private:
  Segment() = default;
  void init_header(std::uint64_t bytes);
  void* alloc_locked(std::uint64_t bytes);
  void free_locked(void* p);

  std::byte* base_ = nullptr;
  std::uint64_t bytes_ = 0;      ///< mapped size of this view
  SegmentHeader* header_ = nullptr;
  bool owning_ = false;          ///< unmap on destruction
  bool mapped_ = false;          ///< this view created the mapping
  std::string shm_name_;
  /// Process-local; unique_ptr so Segment stays movable.
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

}  // namespace tahoe::hms
