#include "hms/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "trace/counters.hpp"

namespace tahoe::hms {

namespace {

// Every block carries a 16-byte header immediately before its payload. The
// header lives in the segment (offsets, plain integers), so an attached
// copy sees the complete heap structure.
struct BlockHeader {
  static constexpr std::uint32_t kLive = 0xB10CA11Cu;
  static constexpr std::uint32_t kFree = 0xB10CF4EEu;
  /// Class index for blocks larger than the biggest pow2 class (exact
  /// size, parked on the first-fit large list when freed).
  static constexpr std::uint32_t kLargeClass = 0xFFFFFFFFu;

  std::uint64_t payload_bytes = 0;  ///< usable bytes after this header
  std::uint32_t cls = 0;            ///< size-class index or kLargeClass
  std::uint32_t state = 0;          ///< kLive / kFree
};
static_assert(sizeof(BlockHeader) == 16, "block header must stay 16 bytes");

constexpr std::uint64_t kMinPayload = 16;
constexpr std::uint64_t kMaxClassPayload =
    kMinPayload << (SegmentHeader::kNumClasses - 1);  // 64 KiB

std::uint64_t align16(std::uint64_t n) { return (n + 15) & ~std::uint64_t{15}; }

/// Smallest pow2 class holding `bytes`, or kLargeClass.
std::uint32_t class_for(std::uint64_t bytes) {
  if (bytes > kMaxClassPayload) return BlockHeader::kLargeClass;
  std::uint32_t c = 0;
  std::uint64_t size = kMinPayload;
  while (size < bytes) {
    size <<= 1;
    ++c;
  }
  return c;
}

std::uint64_t class_payload(std::uint32_t cls) { return kMinPayload << cls; }

std::uint64_t round_to_page(std::uint64_t bytes) {
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

Segment::Segment(std::uint64_t bytes) {
  TAHOE_REQUIRE(bytes >= sizeof(SegmentHeader) + 64,
                "segment too small for its header");
  bytes_ = round_to_page(bytes);
  void* map = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  TAHOE_REQUIRE(map != MAP_FAILED, "mmap failed for segment");
  base_ = static_cast<std::byte*>(map);
  owning_ = true;
  mapped_ = true;
  init_header(bytes_);
}

Segment::Segment(const std::string& shm_name, std::uint64_t bytes) {
  TAHOE_REQUIRE(!shm_name.empty() && shm_name.front() == '/',
                "shm name must start with '/'");
  TAHOE_REQUIRE(bytes >= sizeof(SegmentHeader) + 64,
                "segment too small for its header");
  bytes_ = round_to_page(bytes);
  const int fd = ::shm_open(shm_name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  TAHOE_REQUIRE(fd >= 0, "shm_open failed: " + std::string(strerror(errno)));
  if (::ftruncate(fd, static_cast<off_t>(bytes_)) != 0) {
    ::close(fd);
    ::shm_unlink(shm_name.c_str());
    TAHOE_REQUIRE(false, "ftruncate failed for shm segment");
  }
  void* map =
      ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    ::shm_unlink(shm_name.c_str());
    TAHOE_REQUIRE(false, "mmap failed for shm segment");
  }
  base_ = static_cast<std::byte*>(map);
  owning_ = true;
  mapped_ = true;
  shm_name_ = shm_name;
  init_header(bytes_);
}

Segment Segment::attach(void* image, std::uint64_t bytes) {
  TAHOE_REQUIRE(image != nullptr, "attach requires a mapped image");
  TAHOE_REQUIRE(bytes >= sizeof(SegmentHeader),
                "attach image smaller than a segment header");
  auto* header = static_cast<SegmentHeader*>(image);
  TAHOE_REQUIRE(header->magic == SegmentHeader::kMagic,
                "attach: bad segment magic");
  TAHOE_REQUIRE(header->version == SegmentHeader::kVersion,
                "attach: unsupported segment version");
  TAHOE_REQUIRE(header->bytes == bytes,
                "attach: image size does not match header");
  Segment seg;
  seg.base_ = static_cast<std::byte*>(image);
  seg.bytes_ = bytes;
  seg.header_ = header;
  seg.owning_ = false;
  seg.mapped_ = false;
  return seg;
}

Segment::~Segment() {
  if (base_ != nullptr && mapped_) {
    ::munmap(base_, bytes_);
  }
  if (owning_ && !shm_name_.empty()) {
    ::shm_unlink(shm_name_.c_str());
  }
}

Segment::Segment(Segment&& o) noexcept
    : base_(o.base_),
      bytes_(o.bytes_),
      header_(o.header_),
      owning_(o.owning_),
      mapped_(o.mapped_),
      shm_name_(std::move(o.shm_name_)),
      mutex_(std::move(o.mutex_)) {
  o.base_ = nullptr;
  o.header_ = nullptr;
  o.owning_ = false;
  o.mapped_ = false;
  o.shm_name_.clear();
}

Segment& Segment::operator=(Segment&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr && mapped_) {
      ::munmap(base_, bytes_);
    }
    if (owning_ && !shm_name_.empty()) {
      ::shm_unlink(shm_name_.c_str());
    }
    base_ = o.base_;
    bytes_ = o.bytes_;
    header_ = o.header_;
    owning_ = o.owning_;
    mapped_ = o.mapped_;
    shm_name_ = std::move(o.shm_name_);
    mutex_ = std::move(o.mutex_);
    o.base_ = nullptr;
    o.header_ = nullptr;
    o.owning_ = false;
    o.mapped_ = false;
    o.shm_name_.clear();
  }
  return *this;
}

void Segment::init_header(std::uint64_t bytes) {
  std::memset(base_, 0, sizeof(SegmentHeader));
  header_ = new (base_) SegmentHeader{};
  header_->magic = SegmentHeader::kMagic;
  header_->version = SegmentHeader::kVersion;
  header_->bytes = bytes;
  header_->bump = align16(sizeof(SegmentHeader));
}

void* Segment::alloc(std::uint64_t bytes) {
  TAHOE_REQUIRE(bytes > 0, "segment alloc of zero bytes");
  if (fault::global().should_fail(fault::Site::SegmentAlloc)) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(*mutex_);
  return alloc_locked(bytes);
}

void* Segment::alloc_locked(std::uint64_t bytes) {
  const std::uint32_t cls = class_for(bytes);
  BlockHeader* block = nullptr;

  if (cls != BlockHeader::kLargeClass) {
    // Pow2 class: pop the freelist head if one is parked.
    std::uint64_t& head = header_->free_heads[cls];
    if (head != 0) {
      block = at_as<BlockHeader>(head);
      head = *reinterpret_cast<std::uint64_t*>(block + 1);
      header_->freelist_blocks -= 1;
      header_->freelist_bytes -= block->payload_bytes;
    }
  } else {
    // Large block: first fit over the single large list.
    std::uint64_t* link = &header_->large_head;
    const std::uint64_t want = align16(bytes);
    while (*link != 0) {
      auto* candidate = at_as<BlockHeader>(*link);
      auto* next = reinterpret_cast<std::uint64_t*>(candidate + 1);
      if (candidate->payload_bytes >= want) {
        *link = *next;
        block = candidate;
        header_->freelist_blocks -= 1;
        header_->freelist_bytes -= block->payload_bytes;
        break;
      }
      link = next;
    }
  }

  if (block == nullptr) {
    // Fresh allocation from the bump region.
    const std::uint64_t payload = cls == BlockHeader::kLargeClass
                                      ? align16(bytes)
                                      : class_payload(cls);
    const std::uint64_t need = sizeof(BlockHeader) + payload;
    if (header_->bump + need > header_->bytes) {
      return nullptr;  // exhausted
    }
    block = reinterpret_cast<BlockHeader*>(base_ + header_->bump);
    block->payload_bytes = payload;
    block->cls = cls;
    header_->bump += need;
  }

  block->state = BlockHeader::kLive;
  header_->live_allocs += 1;
  header_->live_bytes += block->payload_bytes;
  trace::global_counters().get("hms.segment.allocs").increment();
  return block + 1;
}

void* Segment::realloc(void* p, std::uint64_t bytes) {
  if (p == nullptr) return alloc(bytes);
  TAHOE_REQUIRE(bytes > 0, "segment realloc to zero bytes");
  TAHOE_REQUIRE(contains(p), "realloc of a pointer outside the segment");
  std::uint64_t old_payload = 0;
  {
    const std::lock_guard<std::mutex> lock(*mutex_);
    auto* block = reinterpret_cast<BlockHeader*>(p) - 1;
    TAHOE_REQUIRE(block->state == BlockHeader::kLive,
                  "realloc of a non-live block");
    if (bytes <= block->payload_bytes) {
      return p;  // shrink or same-class grow: block already fits
    }
    old_payload = block->payload_bytes;
  }
  void* fresh = alloc(bytes);
  if (fresh == nullptr) return nullptr;  // original untouched
  std::memcpy(fresh, p, old_payload);
  free(p);
  return fresh;
}

void Segment::free(void* p) {
  TAHOE_REQUIRE(p != nullptr, "segment free of nullptr");
  TAHOE_REQUIRE(contains(p), "free of a pointer outside the segment");
  const std::lock_guard<std::mutex> lock(*mutex_);
  free_locked(p);
}

void Segment::free_locked(void* p) {
  auto* block = reinterpret_cast<BlockHeader*>(p) - 1;
  TAHOE_REQUIRE(block->state == BlockHeader::kLive,
                "free of a block that is not live (double free?)");
  block->state = BlockHeader::kFree;
  const std::uint64_t block_off = offset_of(block);
  auto* next_cell = reinterpret_cast<std::uint64_t*>(block + 1);
  if (block->cls != BlockHeader::kLargeClass) {
    std::uint64_t& head = header_->free_heads[block->cls];
    *next_cell = head;
    head = block_off;
  } else {
    *next_cell = header_->large_head;
    header_->large_head = block_off;
  }
  header_->live_allocs -= 1;
  header_->live_bytes -= block->payload_bytes;
  header_->freelist_blocks += 1;
  header_->freelist_bytes += block->payload_bytes;
  trace::global_counters().get("hms.segment.frees").increment();
}

std::uint64_t Segment::offset_of(const void* p) const {
  TAHOE_REQUIRE(contains(p), "offset_of a pointer outside the segment");
  return static_cast<std::uint64_t>(static_cast<const std::byte*>(p) - base_);
}

void* Segment::at(std::uint64_t offset, std::uint64_t bytes) const {
  // Written so that no sum can wrap: offsets come from untrusted images.
  TAHOE_REQUIRE(bytes <= bytes_ && offset <= bytes_ - bytes,
                "segment offset out of range");
  return base_ + offset;
}

void Segment::set_root(std::uint64_t offset) {
  const std::lock_guard<std::mutex> lock(*mutex_);
  header_->root = offset;
}

std::uint64_t Segment::root() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return header_->root;
}

std::uint64_t Segment::used() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return header_->bump;
}

std::uint64_t Segment::live_allocations() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return header_->live_allocs;
}

std::uint64_t Segment::live_bytes() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return header_->live_bytes;
}

std::uint64_t Segment::freelist_blocks() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return header_->freelist_blocks;
}

std::uint64_t Segment::freelist_bytes() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return header_->freelist_bytes;
}

}  // namespace tahoe::hms
