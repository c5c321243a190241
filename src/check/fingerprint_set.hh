/**
 * @file
 * The model checker's set of reached states, kept as 64-bit fingerprints
 * in a quotient table.
 */

#ifndef MINOS_CHECK_FINGERPRINT_SET_HH
#define MINOS_CHECK_FINGERPRINT_SET_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

namespace minos::check {

/**
 * Set of reached states, kept as 64-bit fingerprints the way TLC keeps
 * them: no state is stored, so a probe never reads one. A zero
 * fingerprint is stored as zeroFp. Two distinct states with one
 * fingerprint would be merged; the checker's fingerprintCollisionBound()
 * bounds the chance of that.
 *
 * It is a quotient filter (Bender et al., VLDB 2012) that keeps every
 * bit. With 2^q slots, a fingerprint's top q bits (its quotient) are its
 * home slot, and the slot stores only the other 64 - q bits (its
 * remainder) and three metadata bits:
 *
 *  - occupied: some fingerprint has this slot as its home;
 *  - continuation: the slot continues the run of the slot before;
 *  - shifted: the slot holds a remainder away from its home.
 *
 * The remainders of one quotient form a run, sorted ascending. Runs are
 * kept in quotient order, each at its home slot or, pushed by the runs
 * before it, after it, and a cluster of runs starts at a slot that is
 * not shifted. A slot is empty when it is neither occupied nor shifted.
 * The table does not wrap around: a run pushed past the last home slot
 * continues into spill slots after it, and the last slot stays empty.
 *
 * Slots are stored in groups of eight: one byte each of occupied,
 * continuation and shifted bits, then the eight remainders back to
 * back. A slot costs 67 - q bits: 58 at the initial 512 slots, 46 at
 * 2^21 and 40 at 2^27. Finding a run reads a group's bytes at a time,
 * not a slot's bits.
 *
 * Everything lives in one malloc block that doubles past 11/16 load
 * (glibc's realloc moves a large block with mremap, not a copy), so two
 * tables are never live at once. An insert moves the rest of its
 * cluster up one slot, and clusters grow as 1 / (1 - load)^2: doubling
 * at 11/16 rather than 3/4 skips the dearest inserts, and Strict 3x3's
 * 88.9 M states still fit 2^27 slots (0.66 full). A doubling moves the
 * remainder's top bit into the quotient, so each fingerprint keeps its
 * place in the sorted order and a slot at most doubles its index: one
 * pass down the table rewrites it in place.
 */
class FingerprintSet
{
  public:
    FingerprintSet()
    {
        setBits(initialBits);
        cap_ = slots() + 8;
        resize(bytesFor(cap_, rbits_));
        std::memset(table_, 0, bytesFor(cap_, rbits_));
    }

    ~FingerprintSet() { std::free(table_); }

    FingerprintSet(const FingerprintSet &) = delete;
    FingerprintSet &operator=(const FingerprintSet &) = delete;

    /** Add @p fp; false if it was already present. */
    [[gnu::always_inline]] bool
    insert(std::uint64_t fp)
    {
        fp = fp ? fp : zeroFp;
        // A local copy: stores through the table's bytes would otherwise
        // make every member reload.
        const Table t = table();
        const std::size_t home = fp >> t.rbits;
        const std::uint64_t rem = fp & lowMask(t.rbits);
        unsigned char *g = t.group(home / 8);
        const unsigned bit = 1u << home % 8;
        const unsigned occ = g[occupiedByte];
        const unsigned shf = g[shiftedByte];
        if (!((occ | shf) & bit)) { // home is empty
            t.putRem(home, rem);
            g[occupiedByte] = static_cast<unsigned char>(occ | bit);
            return added();
        }
        // Home's own run starts at home: most lookups end at its first
        // remainder.
        if (occ & ~shf & bit && t.rem(home) == rem)
            return false;
        return insertInCluster(home, rem);
    }

    /** Start loading the metadata and the remainder of @p fp's home. */
    void
    prefetch(std::uint64_t fp) const
    {
        const Table t = table();
        const std::size_t home = fp >> t.rbits;
        const unsigned char *g = t.group(home / 8);
        __builtin_prefetch(g);
        __builtin_prefetch(g + 3 + (home % 8 * t.rbits + t.rbits - 1) / 8);
    }

    /** Number of fingerprints stored. */
    std::size_t size() const { return used_; }

    /** Number of home slots (the spill slots after them not counted). */
    std::size_t slots() const { return std::size_t{1} << qbits_; }

  private:
    static constexpr unsigned initialBits = 9;
    static constexpr std::uint64_t zeroFp = 0x9E3779B97F4A7C15ull;

    /** @{ The metadata bytes at the head of a group. */
    static constexpr unsigned occupiedByte = 0;
    static constexpr unsigned continuationByte = 1;
    static constexpr unsigned shiftedByte = 2;
    /** @} */

    static constexpr std::uint64_t
    lowMask(unsigned n)
    {
        return (std::uint64_t{1} << n) - 1;
    }

    /**
     * Set bits of a byte, from a table: the default -march has no
     * popcount instruction, and __builtin_popcount becomes a call.
     */
    static unsigned
    bitsIn(unsigned byte)
    {
        static constexpr auto table = [] {
            std::array<unsigned char, 256> t{};
            for (unsigned i = 1; i < 256; ++i)
                t[i] = static_cast<unsigned char>(t[i / 2] + i % 2);
            return t;
        }();
        return table[byte];
    }

    static unsigned
    highBit(unsigned word)
    {
        return 31 - static_cast<unsigned>(__builtin_clz(word));
    }

    /** Bytes of a group of eight slots with @p rbits-bit remainders. */
    static constexpr std::size_t
    groupBytes(unsigned rbits)
    {
        return 3 + rbits;
    }

    /**
     * Bytes of @p cap slots (a multiple of 8), plus 8 so that a
     * remainder, at most 55 bits from at most 7 bits into its first
     * byte, is always read and written as one unaligned word.
     */
    static std::size_t
    bytesFor(std::size_t cap, unsigned rbits)
    {
        return cap / 8 * groupBytes(rbits) + 8;
    }

    void
    setBits(unsigned q)
    {
        qbits_ = q;
        rbits_ = 64 - q;
    }

    /** Resize the block to @p bytes, keeping its contents. */
    void
    resize(std::size_t bytes)
    {
        void *p = std::realloc(table_, bytes);
        if (!p)
            throw std::bad_alloc();
        table_ = static_cast<unsigned char *>(p);
    }

    /** A table's bytes and remainder width, and its slot accessors. */
    struct Table
    {
        unsigned char *base;
        unsigned rbits;

        unsigned char *
        group(std::size_t g) const
        {
            return base + g * groupBytes(rbits);
        }

        /** Metadata byte @p which of group @p g. */
        unsigned byteOf(std::size_t g, unsigned which) const
        {
            return group(g)[which];
        }

        bool flag(std::size_t i, unsigned which) const
        {
            return byteOf(i / 8, which) >> i % 8 & 1;
        }

        void
        setFlag(std::size_t i, unsigned which, bool on) const
        {
            unsigned char &b = group(i / 8)[which];
            b = static_cast<unsigned char>((b & ~(1u << i % 8)) |
                                           unsigned{on} << i % 8);
        }

        std::uint64_t
        rem(std::size_t i) const
        {
            const std::size_t bit = i % 8 * rbits;
            std::uint64_t w;
            std::memcpy(&w, group(i / 8) + 3 + bit / 8, sizeof w);
            return w >> bit % 8 & lowMask(rbits);
        }

        void
        putRem(std::size_t i, std::uint64_t r) const
        {
            const std::size_t bit = i % 8 * rbits;
            unsigned char *p = group(i / 8) + 3 + bit / 8;
            std::uint64_t w;
            std::memcpy(&w, p, sizeof w);
            w = (w & ~(lowMask(rbits) << bit % 8)) | r << bit % 8;
            std::memcpy(p, &w, sizeof w);
        }

        /**
         * Where the run of @p home starts, or would start; @p home must
         * be shifted. The cluster starts at the last
         * slot not shifted before it; each occupied slot from there to
         * @p home owns one run, and each run ends at the next slot that
         * does not continue it (a run start or an empty slot).
         */
        std::size_t
        runStart(std::size_t home) const
        {
            const unsigned k = home % 8;
            // The general walk, group by group.
            std::size_t g = home / 8;
            unsigned t = ~byteOf(g, shiftedByte) & ((2u << k) - 1);
            while (!t) // slot 0 is never shifted
                t = ~byteOf(--g, shiftedByte) & 0xFF;
            const unsigned b = highBit(t);
            // Runs before home's: occupied slots in [8g + b, home).
            unsigned runs;
            if (g == home / 8) {
                runs = bitsIn(byteOf(g, occupiedByte) &
                              ((1u << k) - (1u << b)));
            } else {
                runs = bitsIn(byteOf(g, occupiedByte) >> b);
                for (std::size_t i = g + 1; i < home / 8; ++i)
                    runs += bitsIn(byteOf(i, occupiedByte));
                runs += bitsIn(byteOf(home / 8, occupiedByte) &
                               ((1u << k) - 1));
            }
            // Home's run starts at the runs-th slot, from the cluster
            // start on, that does not continue a run.
            unsigned z =
                ~byteOf(g, continuationByte) & 0xFF & ~((1u << b) - 1);
            for (unsigned n; (n = bitsIn(z)) <= runs; runs -= n)
                z = ~byteOf(++g, continuationByte) & 0xFF;
            for (; runs > 0; --runs)
                z &= z - 1;
            return 8 * g + static_cast<unsigned>(__builtin_ctz(z));
        }

        /**
         * Put @p r at slot @p s and move the slots from s up to the next
         * empty one up by one; returns that slot. Occupied bits stay
         * with their slots; every moved remainder is shifted.
         */
        std::size_t
        shiftIn(std::size_t s, std::uint64_t r, bool cont, bool shift) const
        {
            std::size_t g = s / 8;
            unsigned u = ~(byteOf(g, occupiedByte) | byteOf(g, shiftedByte)) &
                         0xFF & ~((1u << s % 8) - 1);
            while (!u) {
                ++g;
                u = ~(byteOf(g, occupiedByte) | byteOf(g, shiftedByte)) &
                    0xFF;
            }
            const std::size_t e =
                8 * g + static_cast<unsigned>(__builtin_ctz(u));
            for (std::size_t j = e; j > s; --j) {
                putRem(j, rem(j - 1));
                setFlag(j, continuationByte, flag(j - 1, continuationByte));
                setFlag(j, shiftedByte, true);
            }
            putRem(s, r);
            setFlag(s, continuationByte, cont);
            setFlag(s, shiftedByte, shift);
            return e;
        }
    };

    Table table() const { return {table_, rbits_}; }

    unsigned char *group(std::size_t g) const { return table().group(g); }

    /**
     * insert() for a home that is not empty: find rem in the home's
     * sorted run, or store it at the slot it belongs in.
     */
    [[gnu::noinline]] bool
    insertInCluster(std::size_t home, std::uint64_t rem)
    {
        const Table t = table();
        unsigned char *g = t.group(home / 8);
        const unsigned bit = 1u << home % 8;
        const std::size_t start =
            g[shiftedByte] & bit ? t.runStart(home) : home;
        std::size_t s = start;
        if (g[occupiedByte] & bit) {
            for (;;) {
                const std::uint64_t r = t.rem(s);
                if (r == rem)
                    return false;
                if (r > rem)
                    break;
                if (!t.flag(++s, continuationByte))
                    break;
            }
        }
        bool cont = false;
        if (g[occupiedByte] & bit) {
            if (s == start) // rem heads the run
                t.setFlag(start, continuationByte, true);
            else
                cont = true;
        }
        g[occupiedByte] = static_cast<unsigned char>(g[occupiedByte] | bit);
        if (t.shiftIn(s, rem, cont, s != home) + 1 == cap_)
            addSpill();
        return added();
    }

    bool
    added()
    {
        if (++used_ > slots() / 16 * 11)
            grow();
        return true;
    }

    /** Add a group of empty spill slots so the last slot stays empty. */
    [[gnu::noinline, gnu::cold]] void
    addSpill()
    {
        resize(bytesFor(cap_ + 8, rbits_));
        std::memset(group(cap_ / 8), 0, groupBytes(rbits_));
        cap_ += 8;
    }

    /**
     * Double the table in place; see the class comment. The top
     * remainder bit joins the quotient: home h becomes 2h or 2h + 1.
     * Old groups are read from the top, and the whole clusters read so
     * far are written out after each group. Every new home of a cluster
     * that starts at old slot b is 2b or above, and a group shrinks by
     * one byte, so from the third old group on, clusters that start in a
     * group are written above that group's last byte: over slots already
     * read, never over one still to be read. The first two old groups
     * are read from a copy.
     */
    [[gnu::noinline, gnu::cold]] void
    grow()
    {
        const unsigned oldRbits = rbits_;
        const std::size_t oldGroupBytes = groupBytes(oldRbits);
        const std::size_t oldCap = cap_;
        const std::size_t oldBytes = bytesFor(oldCap, oldRbits);
        const std::size_t newSlots = 2 * slots();
        setBits(qbits_ + 1);

        std::array<unsigned char, 2 * groupBytes(64 - initialBits) + 8> low{};
        std::memcpy(low.data(), table_, 2 * oldGroupBytes);
        // Slots read and not yet written, top down: (rem << 1 |
        // continuation) of each, and the occupied ones among them.
        std::vector<std::uint64_t> pending(64);
        std::vector<std::size_t> homes(64);
        std::size_t np = 0;
        std::size_t nh = 0;
        bool sized = false;
        std::size_t zeroed = 0; // new groups >= zeroed have their bits cleared
        for (std::size_t gi = oldCap / 8; gi-- > 0;) {
            // Placing clusters may move the block: read through table_
            // each time.
            const unsigned char *g =
                gi < 2 ? low.data() + gi * oldGroupBytes
                       : table_ + gi * oldGroupBytes;
            const unsigned occ = g[occupiedByte];
            const unsigned cont = g[continuationByte];
            const unsigned shf = g[shiftedByte];
            if (!(occ | shf))
                continue;
            if (pending.size() < np + 8) {
                pending.resize(2 * (np + 8));
                homes.resize(2 * (np + 8));
            }
            // Every slot is read and written to the buffers; only the
            // live ones advance them, so no branch depends on the data.
            std::size_t whole = 0; // slots of whole clusters, top down
            std::size_t wholeHomes = 0;
            for (unsigned k = 8; k-- > 0;) {
                const std::size_t bit = k * oldRbits;
                std::uint64_t w;
                std::memcpy(&w, g + 3 + bit / 8, sizeof w);
                pending[np] =
                    (w >> bit % 8 & lowMask(oldRbits)) << 1 | (cont >> k & 1);
                homes[nh] = 8 * gi + k;
                const unsigned live = (occ | shf) >> k & 1;
                np += live;
                nh += occ >> k & 1;
                // A live slot that is not shifted starts a cluster.
                const bool starts = live & ~shf >> k;
                whole = starts ? np : whole;
                wholeHomes = starts ? nh : wholeHomes;
            }
            if (whole == 0)
                continue;
            if (!sized) { // the top cluster sets the size
                sized = true;
                const std::size_t last = placeClusters(
                    pending.data(), whole, homes.data(), wholeHomes,
                    oldRbits, nullptr);
                cap_ = std::max(newSlots + 8, (last + 9) / 8 * 8);
                resize(std::max(oldBytes, bytesFor(cap_, rbits_)));
                zeroed = cap_ / 8;
            }
            placeClusters(pending.data(), whole, homes.data(), wholeHomes,
                          oldRbits, &zeroed);
            std::copy(pending.begin() + static_cast<std::ptrdiff_t>(whole),
                      pending.begin() + static_cast<std::ptrdiff_t>(np),
                      pending.begin());
            std::copy(homes.begin() + static_cast<std::ptrdiff_t>(wholeHomes),
                      homes.begin() + static_cast<std::ptrdiff_t>(nh),
                      homes.begin());
            np -= whole;
            nh -= wholeHomes;
        }
        while (zeroed > 0)
            std::memset(group(--zeroed), 0, 3);
        if (oldBytes > bytesFor(cap_, rbits_))
            resize(bytesFor(cap_, rbits_));
    }

    /**
     * Write @p n old slots that make whole clusters, read top down into
     * @p x with their @p nHomes occupied slots in @p homes, to their new
     * slots, lowest first; returns the new slot of the top one. Each
     * fingerprint's new slot is its new home or the slot after the one
     * below it, whichever is higher: a cluster ends below the new home
     * of the next one, so this holds across clusters too. New groups at
     * or above @p zeroed already have their metadata cleared; the ones
     * these slots reach below it are cleared first. With @p zeroed null,
     * nothing is written.
     */
    std::size_t
    placeClusters(const std::uint64_t *x, std::size_t n,
                  const std::size_t *homes, std::size_t nHomes,
                  unsigned oldRbits, std::size_t *zeroed) const
    {
        // Locals: a store through the table's bytes may alias anything
        // read through a pointer or reference. The loop has no branch
        // that depends on the data.
        const Table t = table();
        std::size_t h0 = nHomes - 1; // the home of the lowest run
        if (zeroed) {
            const std::size_t lowest =
                2 * homes[h0] + (x[n - 1] >> oldRbits);
            while (*zeroed > lowest / 8)
                std::memset(t.group(--*zeroed), 0, 3);
        }
        std::size_t lastHome = ~std::size_t{0};
        std::size_t free = 0; // the lowest slot the next one may take
        std::size_t pos = 0;
        for (std::size_t i = n; i-- > 0;) {
            // A run start takes the next home; the others keep it.
            h0 -= i + 1 != n && !(x[i] & 1);
            const std::uint64_t rem = x[i] >> 1;
            const std::size_t h = 2 * homes[h0] + (rem >> (oldRbits - 1));
            pos = std::max(h, free);
            free = pos + 1;
            if (!zeroed)
                continue;
            unsigned char *hg = t.group(h / 8);
            hg[occupiedByte] |= static_cast<unsigned char>(1u << h % 8);
            unsigned char *pg = t.group(pos / 8);
            const unsigned bit = 1u << pos % 8;
            pg[continuationByte] |=
                static_cast<unsigned char>(bit * (h == lastHome));
            pg[shiftedByte] |= static_cast<unsigned char>(bit * (pos != h));
            t.putRem(pos, rem & lowMask(t.rbits));
            lastHome = h;
        }
        return pos;
    }

    unsigned char *table_ = nullptr;
    unsigned qbits_ = 0;  ///< quotient bits: 2^qbits_ home slots
    unsigned rbits_ = 0;  ///< remainder bits, 64 - qbits_
    std::size_t cap_ = 0; ///< slots, spill included; a multiple of 8
    std::size_t used_ = 0;
};

/**
 * The fingerprints added last, direct-mapped on their low bits, so that
 * most repeat lookups end here and not in the FingerprintSet. A search
 * reaches most states more than once, and mostly soon after the first
 * time: the two orders of a pair of independent actions lead to one
 * state from two sibling states, which leave the BFS queue one after the
 * other. Every fingerprint here is one the caller added to its set, so a
 * hit is exact; a miss says nothing.
 *
 * It starts at 64 entries and doubles, up to maxEntries (32 KiB), as
 * fingerprints are added, so a small search pays for a small memo.
 */
class RecentFingerprints
{
  public:
    static constexpr std::size_t maxEntries = 4096;

    RecentFingerprints()
    {
        std::memset(entries_.data(), 0, (mask_ + 1) * sizeof(std::uint64_t));
    }

    /** Was @p fp added, and not yet evicted by one with its low bits? */
    bool
    contains(std::uint64_t fp) const
    {
        fp = fp ? fp : zeroFp;
        return entries_[fp & mask_] == fp;
    }

    /** Remember @p fp, in place of the one with its low bits. */
    void
    add(std::uint64_t fp)
    {
        fp = fp ? fp : zeroFp;
        entries_[fp & mask_] = fp;
        if (++added_ > 8 * (mask_ + 1) && mask_ + 1 < maxEntries) {
            // The entries already held stay true where they are; only
            // the new half needs clearing.
            std::memset(entries_.data() + mask_ + 1, 0,
                        (mask_ + 1) * sizeof(std::uint64_t));
            mask_ = 2 * mask_ + 1;
        }
    }

  private:
    /** A zero fingerprint is held as this; zero marks an empty entry. */
    static constexpr std::uint64_t zeroFp = 0x9E3779B97F4A7C15ull;

    std::array<std::uint64_t, maxEntries> entries_; ///< [0, mask_] valid
    std::size_t mask_ = 63;
    std::size_t added_ = 0;
};

} // namespace minos::check

#endif // MINOS_CHECK_FINGERPRINT_SET_HH
