/**
 * Fuzz-style corruption tests: every decoder in the repository must
 * survive truncated, bit-flipped, and spliced inputs by returning an
 * error or a byte-exact round trip — never crashing (run these under
 * TMCC_SANITIZE=address,undefined) and never returning silently-wrong
 * page data.
 */

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "compress/huffman.hh"
#include "compress/lz.hh"
#include "compress/mem_deflate.hh"
#include "compress/rfc_deflate.hh"
#include "tests/compress/test_patterns.hh"
#include "tmcc/ptb_codec.hh"
#include "vm/pte.hh"

namespace tmcc
{
namespace
{

/** Cut the byte stream at a random point. */
void
truncate(std::vector<std::uint8_t> &bytes, Rng &rng)
{
    if (!bytes.empty())
        bytes.resize(rng.below(bytes.size()));
}

/** Flip 1..8 random bits. */
void
bitFlip(std::vector<std::uint8_t> &bytes, Rng &rng)
{
    if (bytes.empty())
        return;
    const unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
    for (unsigned i = 0; i < flips; ++i) {
        const std::uint64_t bit = rng.below(bytes.size() * 8);
        bytes[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
    }
}

/** Replace a random span with a span from another valid stream. */
void
splice(std::vector<std::uint8_t> &bytes,
       const std::vector<std::uint8_t> &donor, Rng &rng)
{
    if (bytes.empty() || donor.empty())
        return;
    const std::size_t at = rng.below(bytes.size());
    const std::size_t from = rng.below(donor.size());
    const std::size_t len = std::min(
        {1 + rng.below(64), bytes.size() - at, donor.size() - from});
    std::copy_n(donor.begin() + static_cast<std::ptrdiff_t>(from), len,
                bytes.begin() + static_cast<std::ptrdiff_t>(at));
}

/** Apply one of the three mutations, chosen by the rng. */
void
mutate(std::vector<std::uint8_t> &bytes,
       const std::vector<std::uint8_t> &donor, Rng &rng)
{
    switch (rng.below(3)) {
      case 0: truncate(bytes, rng); break;
      case 1: bitFlip(bytes, rng); break;
      default: splice(bytes, donor, rng); break;
    }
}

/** Error, or byte-exact: the one acceptable pair of outcomes. */
void
expectErrorOrExact(const StatusOr<std::vector<std::uint8_t>> &got,
                   const std::vector<std::uint8_t> &original)
{
    if (got.ok()) {
        EXPECT_EQ(got.value(), original);
    }
}

TEST(CorruptInput, MemDeflateMutatedPayloads)
{
    Rng rng(1001);
    MemDeflate codec;
    const auto page = test::textPage(rng);
    const auto donor_page = test::pointerPage(rng);
    const CompressedPage valid = codec.compress(page.data(), page.size());
    const CompressedPage donor =
        codec.compress(donor_page.data(), donor_page.size());

    unsigned rejected = 0;
    constexpr unsigned trials = 300;
    for (unsigned i = 0; i < trials; ++i) {
        CompressedPage bad = valid;
        mutate(bad.payload, donor.payload, rng);
        const auto got = codec.decompress(bad);
        expectErrorOrExact(got, page);
        rejected += !got.ok();
    }
    // Most mutations must actually be detected, not accidentally lost.
    EXPECT_GT(rejected, trials / 2);
}

TEST(CorruptInput, MemDeflateHuffmanPathMutations)
{
    // Low-entropy pages keep the Huffman stage on, so mutations also
    // land in the reduced-tree header.
    Rng rng(1002);
    MemDeflate codec;
    const auto page = test::randomPage(rng, pageSize, 5);
    const CompressedPage valid = codec.compress(page.data(), page.size());
    ASSERT_TRUE(valid.huffmanUsed);

    for (unsigned i = 0; i < 300; ++i) {
        CompressedPage bad = valid;
        mutate(bad.payload, valid.payload, rng);
        expectErrorOrExact(codec.decompress(bad), page);
    }
}

TEST(CorruptInput, MemDeflateEveryPrefixTruncation)
{
    Rng rng(1003);
    MemDeflate codec;
    const auto page = test::textPage(rng);
    const CompressedPage valid = codec.compress(page.data(), page.size());

    for (std::size_t n = 0; n < valid.payload.size();
         n += 1 + valid.payload.size() / 128) {
        CompressedPage bad = valid;
        bad.payload.resize(n);
        const auto got = codec.decompress(bad);
        EXPECT_FALSE(got.ok()) << "prefix " << n << " decoded";
    }
}

TEST(CorruptInput, MemDeflateMetadataMutations)
{
    Rng rng(1004);
    MemDeflate codec;
    const auto page = test::textPage(rng);
    const CompressedPage valid = codec.compress(page.data(), page.size());

    CompressedPage shrunk = valid;
    shrunk.originalSize = page.size() / 2;
    expectErrorOrExact(codec.decompress(shrunk), page);

    CompressedPage grown = valid;
    grown.originalSize = page.size() + 64;
    expectErrorOrExact(codec.decompress(grown), page);

    CompressedPage bad_crc = valid;
    bad_crc.crc ^= 0x1;
    EXPECT_FALSE(codec.decompress(bad_crc).ok());
}

TEST(CorruptInput, RfcDeflateMutatedPayloads)
{
    Rng rng(1005);
    RfcDeflate codec;
    const auto page = test::textPage(rng);
    const auto donor_page = test::randomPage(rng, pageSize, 40);
    const RfcCompressed valid = codec.compress(page.data(), page.size());
    const RfcCompressed donor =
        codec.compress(donor_page.data(), donor_page.size());

    unsigned rejected = 0;
    constexpr unsigned trials = 300;
    for (unsigned i = 0; i < trials; ++i) {
        RfcCompressed bad = valid;
        mutate(bad.payload, donor.payload, rng);
        const auto got = codec.decompress(bad);
        expectErrorOrExact(got, page);
        rejected += !got.ok();
    }
    EXPECT_GT(rejected, trials / 2);
}

TEST(CorruptInput, RfcDeflateHeaderBitFlips)
{
    // The dynamic-Huffman header (HLIT/HDIST/CL tree) is the most
    // structurally fragile region; hammer its first bytes specifically.
    Rng rng(1006);
    RfcDeflate codec;
    const auto page = test::textPage(rng);
    const RfcCompressed valid = codec.compress(page.data(), page.size());

    for (unsigned bit = 0; bit < 256 && bit < valid.payload.size() * 8;
         ++bit) {
        RfcCompressed bad = valid;
        bad.payload[bit >> 3] ^=
            static_cast<std::uint8_t>(1u << (bit & 7));
        expectErrorOrExact(codec.decompress(bad), page);
    }
}

TEST(CorruptInput, RfcDeflateEveryPrefixTruncation)
{
    Rng rng(1007);
    RfcDeflate codec;
    const auto page = test::textPage(rng);
    const RfcCompressed valid = codec.compress(page.data(), page.size());

    for (std::size_t n = 0; n < valid.payload.size();
         n += 1 + valid.payload.size() / 128) {
        RfcCompressed bad = valid;
        bad.payload.resize(n);
        EXPECT_FALSE(codec.decompress(bad).ok()) << "prefix " << n;
    }
}

TEST(CorruptInput, LzMutatedTokenStreams)
{
    Rng rng(1008);
    Lz lz;
    const auto page = test::textPage(rng);
    auto tokens = lz.compress(page.data(), page.size());

    for (unsigned i = 0; i < 500; ++i) {
        auto bad = tokens;
        LzToken &t = bad[rng.below(bad.size())];
        switch (rng.below(4)) {
          case 0: t.distance = 0; break;
          case 1:
            t.distance = static_cast<std::uint16_t>(rng.next());
            t.isMatch = true;
            break;
          case 2:
            t.length = static_cast<std::uint16_t>(rng.next());
            t.isMatch = true;
            break;
          default: t.isMatch = !t.isMatch; break;
        }
        // Mutated tokens are a different (possibly valid) stream, so a
        // successful decode is fine; what must never happen is an
        // out-of-bounds copy, which ASan enforces here and the explicit
        // bounds test below checks functionally.
        (void)lz.decompress(bad);
    }
}

TEST(CorruptInput, LzRejectsOutOfWindowAndZeroDistance)
{
    Lz lz;
    std::vector<LzToken> tokens;
    LzToken lit;
    lit.literal = 0x41;
    tokens.push_back(lit);
    LzToken match;
    match.isMatch = true;
    match.length = 3;
    match.distance = 2; // only 1 byte produced so far
    tokens.push_back(match);
    EXPECT_FALSE(lz.decompress(tokens).ok());

    tokens[1].distance = 0;
    EXPECT_FALSE(lz.decompress(tokens).ok());

    tokens[1].distance = 1;
    tokens[1].length = static_cast<std::uint16_t>(
        lz.config().maxMatch + 1);
    EXPECT_FALSE(lz.decompress(tokens).ok());
}

TEST(CorruptInput, ReducedTreeGarbageHeaders)
{
    // Arbitrary byte soup fed to the tree reader: must error or yield a
    // tree whose decodeByte stays within bounds, never crash.
    Rng rng(1009);
    for (unsigned i = 0; i < 500; ++i) {
        std::vector<std::uint8_t> junk(1 + rng.below(64));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.below(256));
        BitReader br(junk);
        auto tree = ReducedTree::read(br);
        if (!tree.ok())
            continue;
        for (unsigned n = 0; n < 64; ++n)
            if (!tree.value().decodeByte(br).ok())
                break;
    }
}

TEST(CorruptInput, CanonicalCodeRejectsInvalidLengthSets)
{
    // Over-full Kraft sums and empty codebooks must be rejected up
    // front instead of building an ambiguous decoder.
    EXPECT_FALSE(
        CanonicalCode::validateLengths({1, 1, 1}).ok()); // over-full
    EXPECT_FALSE(CanonicalCode::validateLengths({}).ok());
    EXPECT_FALSE(CanonicalCode::validateLengths({0, 0, 0}).ok());
    EXPECT_FALSE(CanonicalCode::validateLengths({40}).ok()); // depth
    EXPECT_TRUE(CanonicalCode::validateLengths({1, 2, 2}).ok());

    // Fuzzed length vectors: validate must agree with constructibility.
    Rng rng(1010);
    for (unsigned i = 0; i < 300; ++i) {
        std::vector<unsigned> lens(1 + rng.below(20));
        for (auto &l : lens)
            l = static_cast<unsigned>(rng.below(18));
        if (CanonicalCode::validateLengths(lens).ok())
            CanonicalCode code(lens); // must not panic
    }
}

TEST(CorruptInput, PtbImageMutations)
{
    PtbCodec codec;
    PteFlags flags;
    std::uint64_t ptes[ptesPerPtb];
    for (unsigned i = 0; i < ptesPerPtb; ++i)
        ptes[i] = makePte(0x1000 + i * 7, flags);
    std::array<bool, ptesPerPtb> has_cte{};
    std::array<std::uint64_t, ptesPerPtb> cte{};
    for (unsigned i = 0; i < codec.maxSlots(); ++i) {
        has_cte[i] = true;
        cte[i] = 0x42 + i;
    }
    const auto valid = codec.encode(ptes, has_cte, cte);

    // The untouched image round-trips exactly.
    const auto back = codec.decode(valid);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().statusBits, pteStatusBits(ptes[0]));
    for (unsigned i = 0; i < ptesPerPtb; ++i) {
        EXPECT_EQ(back.value().ppns[i], ptePpn(ptes[i]));
        EXPECT_EQ(back.value().hasCte[i], has_cte[i]);
        if (has_cte[i]) {
            EXPECT_EQ(back.value().cte[i], cte[i]);
        }
    }

    // Single-bit flips: the 8-bit CRC catches the overwhelming
    // majority; the occasional escape must still produce in-range
    // fields (the §V-A verification fetch handles wrong-but-plausible
    // CTEs downstream).
    unsigned rejected = 0;
    const std::uint64_t phys_pages = codec.config().physPages;
    for (unsigned bit = 0; bit < ptbBytes * 8; ++bit) {
        auto bad = valid;
        bad[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
        const auto got = codec.decode(bad);
        if (!got.ok()) {
            ++rejected;
            continue;
        }
        for (unsigned i = 0; i < ptesPerPtb; ++i)
            EXPECT_LT(got.value().ppns[i], phys_pages);
    }
    EXPECT_GT(rejected, ptbBytes * 8 * 9 / 10);

    // Random multi-bit damage never crashes the decoder.
    Rng rng(1011);
    for (unsigned i = 0; i < 500; ++i) {
        auto bad = valid;
        const unsigned flips = 1 + static_cast<unsigned>(rng.below(32));
        for (unsigned f = 0; f < flips; ++f) {
            const auto bit = rng.below(ptbBytes * 8);
            bad[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
        }
        (void)codec.decode(bad);
    }
}

} // namespace
} // namespace tmcc
