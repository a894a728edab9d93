#include "vm/phys_mem.hh"

#include <algorithm>

#include "common/log.hh"

namespace tmcc
{

PhysMem::PhysMem(std::uint64_t total_pages) : totalPages_(total_pages)
{
    fatalIf(total_pages < 8, "physical memory unreasonably small");
}

Ppn
PhysMem::allocFrame()
{
    if (!freeList_.empty()) {
        const Ppn ppn = freeList_.back();
        freeList_.pop_back();
        return ppn;
    }
    fatalIf(nextFrame_ >= totalPages_, "out of physical memory");
    return nextFrame_++;
}

Ppn
PhysMem::allocHugeFrame()
{
    constexpr std::uint64_t frames = hugePageSize / pageSize;
    // Bump-allocate an aligned run; holes before the alignment boundary
    // go back to the free list.
    std::uint64_t start = (nextFrame_ + frames - 1) & ~(frames - 1);
    fatalIf(start + frames > totalPages_,
            "out of physical memory for huge page");
    for (std::uint64_t p = nextFrame_; p < start; ++p)
        freeList_.push_back(p);
    nextFrame_ = start + frames;
    return start;
}

void
PhysMem::freeFrame(Ppn ppn)
{
    if (isPageTablePage(ppn)) {
        ptStore_[ppn].reset();
        ptOrder_.erase(std::find(ptOrder_.begin(), ptOrder_.end(), ppn));
    }
    freeList_.push_back(ppn);
}

Ppn
PhysMem::allocPageTablePage()
{
    const Ppn ppn = allocFrame();
    if (ppn >= ptStore_.size())
        ptStore_.resize(ppn + 1);
    // Zero-filled: all entries not-present.
    ptStore_[ppn] = std::make_unique<PtPage>();
    ptOrder_.push_back(ppn);
    return ppn;
}

PtPage &
PhysMem::ptPage(Ppn ppn)
{
    panicIf(!isPageTablePage(ppn), "not a page-table page");
    return *ptStore_[ppn];
}

const PtPage &
PhysMem::ptPage(Ppn ppn) const
{
    panicIf(!isPageTablePage(ppn), "not a page-table page");
    return *ptStore_[ppn];
}

std::uint64_t
PhysMem::readQword(Addr paddr) const
{
    const Ppn ppn = pageNumber(paddr);
    const auto idx = (paddr & (pageSize - 1)) / pteSize;
    return ptPage(ppn)[idx];
}

void
PhysMem::writeQword(Addr paddr, std::uint64_t value)
{
    const Ppn ppn = pageNumber(paddr);
    const auto idx = (paddr & (pageSize - 1)) / pteSize;
    ptPage(ppn)[idx] = value;
}

} // namespace tmcc
