/* Compiled hot loops for the repro simulation engines.
 *
 * One translation unit, no Python.h: the library is built with the
 * system C compiler and bound through ctypes (see cext_backend.py), so
 * the ABI surface is plain int64 buffers plus numpy's bit generator
 * struct.  Every kernel is a bit-exact transliteration of the
 * corresponding numpy inner loop:
 *
 *   repro_ensemble_batch  -- the whole clean trial loop of one
 *                            count-ensemble chunk: draws (through
 *                            numpy's own bounded-integer routine, so
 *                            the stream is Generator.integers'), the
 *                            window step below, retirement, and window
 *                            adaptation -- one foreign call per chunk;
 *   repro_null_skip_run   -- the whole null-skipping trial loop
 *                            (gillespie.py's NullSkippingEngine and
 *                            ContinuousTimeEngine): geometric skips,
 *                            gamma clock and pair draws through
 *                            numpy's own samplers, one foreign call
 *                            per trial;
 *   repro_count_block     -- the count engine's fused Fenwick-tree
 *                            sample+update loop over one block of
 *                            pre-drawn targets.
 *
 * Two more kernels have no caller in the engines and are kept only
 * because perfbench/layers.py wraps them by name (its kernel wrap
 * list); they go when that list is rewritten:
 *
 *   repro_ensemble_round  -- the count-ensemble collision-bounded
 *                            window step on pre-drawn values (a
 *                            hash-based first-retouch scan plus a
 *                            sequential prefix apply with exact settle
 *                            detection), superseded by
 *                            repro_ensemble_batch;
 *   repro_batch_match     -- one disjoint random matching step
 *                            (gather, table lookup, scatter,
 *                            incremental count update).
 *
 * All of them take the packed transition table built by
 * repro.sim.kernels.pack_transition_table: one int64 per ordered
 * state pair holding the successor states, the productive flag, and
 * the unanimity-class count deltas (see PT_* below), so the apply
 * loops do a single table load per interaction.
 *
 * Numeric contracts (guarded on the Python side):
 *   n  <= 2^26   so n(n-1) < 2^52 (exact double divmod, and an exact
 *                double for null skipping's success probability)
 *                and positions fit the int32 scratch arrays;
 *   W  <  2^16   so the slot index fits a hash entry's bottom half
 *                (follows from the 4096 window cap);
 *   s  <= 2^12   successor states fit the packed table's 16-bit
 *                fields.
 */

#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

#define EXPORT __attribute__((visibility("default")))

/* Packed transition-table fields (must match pack_transition_table):
 * bits 0..15 successor initiator state, 16..31 successor responder
 * state, 32 productive flag, 33..35 / 36..38 / 39..41 the biased
 * (delta + 2) unanimity-class count deltas for classes 0 / 1 / 2. */
#define PT_XI(e) ((e) & 0xFFFF)
#define PT_YJ(e) (((e) >> 16) & 0xFFFF)
#define PT_PRODUCTIVE(e) (((e) >> 32) & 1)
#define PT_DC0(e) ((((e) >> 33) & 7) - 2)
#define PT_DC1(e) ((((e) >> 36) & 7) - 2)
#define PT_DC2(e) ((((e) >> 39) & 7) - 2)

/* Exact floor divmod of v by d for 0 <= v < 2^52, d >= 1: one double
 * multiply plus a one-step correction replaces the ~25-cycle hardware
 * divide.  The double quotient is within 1 of the true quotient for
 * operands below 2^52, so a single fix-up suffices. */
static inline int64_t divmod_fast(int64_t v, int64_t d, double inv,
                                  int64_t *rem)
{
    int64_t q = (int64_t)((double)v * inv);
    int64_t r = v - q * d;
    if (r < 0) {
        q -= 1;
        r += d;
    } else if (r >= d) {
        q += 1;
        r -= d;
    }
    *rem = r;
    return q;
}

/* Position -> state decode against the inclusive prefix sums cum
 * (cum[s-1] = n, 0 <= p < n): smallest k with cum[k] > p.  A bucket
 * LUT over the position space gives the scan's start point, so the
 * expected advance is far below one step (at most s boundaries are
 * spread over the buckets); the result is identical to a binary
 * search for every bshift. */
#define DECODE_BUCKETS 2048

static inline int64_t decode_pos(const int32_t *cum,
                                 const int16_t *bucket, int bshift,
                                 int32_t p)
{
    int64_t k = bucket[p >> bshift];
    while (cum[k] <= p)
        k++;
    return k;
}

/* Hash entries are 32 bits -- epoch << 16 | slot -- and the position a
 * slot refers to lives in pos[slot], so a probe match is verified with
 * one extra pos[] load instead of widening the entry.  Every row pass
 * takes a fresh epoch, so stale entries from earlier rows (and earlier
 * rounds) are claimed lazily; the table is cleared only when the
 * 16-bit epoch wraps.  H = 32w keeps chains short enough that the
 * probe loop's branch is almost always right. */
#define HASH_MULT 0x9E3779B97F4A7C15ULL
#define EPOCH_LIMIT 0xFFFF

/* Work buffers of the window step, sized once for the largest window
 * (w_max) and state count a batch can reach. */
typedef struct {
    uint32_t *ht;        /* hash table, hash_cap entries */
    int64_t hash_cap;
    uint32_t epoch;      /* last epoch handed out (0 = never) */
    int32_t *pos;        /* 2 w_max slot positions */
    int32_t *st;         /* 2 w_max round-start decodes */
    int32_t *ni, *nj;    /* w_max post-interaction states */
    int32_t *cum;        /* s inclusive prefix sums */
    int16_t *bucket;     /* DECODE_BUCKETS position -> state hints */
} round_scratch;

static int64_t hash_size(int64_t w)
{
    int64_t H = 1;
    while (H < 32 * w)
        H <<= 1;
    return H;
}

static void scratch_free(round_scratch *sc)
{
    free(sc->ht);
    free(sc->pos);
    free(sc->st);
    free(sc->ni);
    free(sc->nj);
    free(sc->cum);
    free(sc->bucket);
}

static int scratch_init(round_scratch *sc, int64_t w_max, int64_t s)
{
    sc->hash_cap = hash_size(w_max);
    sc->epoch = 0;
    sc->ht = calloc((size_t)sc->hash_cap, sizeof(uint32_t));
    sc->pos = malloc((size_t)(2 * w_max) * sizeof(int32_t));
    sc->st = malloc((size_t)(2 * w_max) * sizeof(int32_t));
    sc->ni = malloc((size_t)w_max * sizeof(int32_t));
    sc->nj = malloc((size_t)w_max * sizeof(int32_t));
    sc->cum = malloc((size_t)s * sizeof(int32_t));
    sc->bucket = malloc((size_t)DECODE_BUCKETS * sizeof(int16_t));
    if (!sc->ht || !sc->pos || !sc->st || !sc->ni || !sc->nj
            || !sc->cum || !sc->bucket) {
        scratch_free(sc);
        return -1;
    }
    return 0;
}

/* The collision-bounded window step for one round, all rows.
 *
 * Inputs:
 *   raw        (live, w) int64, fresh uniform draws from [0, n(n-1))
 *   counts     (live, s) int64, mutated in place
 *   remaining  (live,)   per-row interaction budget left (>= 1)
 *   ptab       flat (s*s,) packed transition table (PT_* fields)
 *   cls        (s,) unanimity class per state (0 undecided / 1 / 2)
 * Outputs (live,) each:
 *   consumed     interactions consumed this round (incl. collision)
 *   round_prod   productive interactions this round (full prefix --
 *                counting continues past a settle, matching the numpy
 *                path's round_prod, so the caller's productive
 *                bookkeeping cancels exactly)
 *   settled / settle_step / settle_prod / decision
 *                exact in-round settle point when the row reached
 *                unanimity (settle_step is 1-based within the round)
 *
 * Settled rows stop *applying* at the settle step, so their count row
 * is the exact settle configuration (the caller retires them); their
 * consumed/round_prod keep full-round values because the numpy path's
 * window adaptation and step accounting use them for every row.
 */
static void round_rows(
    const int64_t *raw, int64_t live, int64_t w, int64_t n, int64_t s,
    int64_t *counts, const int64_t *remaining,
    const int64_t *ptab, const int64_t *cls,
    int64_t *consumed, int64_t *round_prod, int64_t *settled,
    int64_t *settle_step, int64_t *settle_prod, int64_t *decision,
    round_scratch *sc)
{
    const int64_t W = 2 * w;
    const int64_t H = hash_size(w);
    int hbits = 0;
    for (int64_t t = H; t > 1; t >>= 1)
        hbits++;
    const int hshift = 64 - hbits;
    const uint64_t hmask = (uint64_t)H - 1;

    int bshift = 0;
    while (((n - 1) >> bshift) >= DECODE_BUCKETS)
        bshift++;
    const int64_t nb = ((n - 1) >> bshift) + 1;

    uint32_t *ht = sc->ht;
    int32_t *pos = sc->pos, *st = sc->st, *ni = sc->ni, *nj = sc->nj;
    int32_t *cum = sc->cum;
    int16_t *bucket = sc->bucket;
    const double inv = 1.0 / (double)(n - 1);

    for (int64_t row = 0; row < live; row++) {
        const int64_t *rr = raw + row * w;
        int64_t *crow = counts + row * s;
        if (sc->epoch == EPOCH_LIMIT) {
            memset(ht, 0, (size_t)sc->hash_cap * sizeof(uint32_t));
            sc->epoch = 0;
        }
        const uint32_t epoch = ++sc->epoch;
        const uint32_t tag = epoch << 16;

        /* positions: even slots initiators, odd slots responders */
        for (int64_t t = 0; t < W; t += 2) {
            int64_t b;
            int64_t a = divmod_fast(rr[t >> 1], n - 1, inv, &b);
            b += (b >= a);
            pos[t] = (int32_t)a;
            pos[t + 1] = (int32_t)b;
        }

        /* first re-touch: insert slots in time order; the first slot
         * whose position is already present is t_star, and the stored
         * entry is its (unique) previous occurrence. */
        int64_t t_star = W, prev = -1;
        for (int64_t t = 0; t < W; t++) {
            const uint64_t p = (uint64_t)(uint32_t)pos[t];
            uint64_t h = (p * HASH_MULT) >> hshift;
            for (;;) {
                const uint32_t e = ht[h];
                if ((e >> 16) != epoch) {
                    ht[h] = tag | (uint32_t)t;
                    break;
                }
                const int64_t other = e & 0xFFFF;
                if (pos[other] == (int32_t)p) {
                    t_star = t;
                    prev = other;
                    break;
                }
                h = (h + 1) & hmask;
            }
            if (t_star < W)
                break;
        }

        const int64_t rem = remaining[row];
        const int64_t mc = t_star >> 1;
        const int64_t nclean = mc < rem ? mc : rem;
        const int coll = (t_star < W) && (mc < rem);
        consumed[row] = nclean + (coll ? 1 : 0);
        settled[row] = 0;
        settle_step[row] = 0;
        settle_prod[row] = 0;
        decision[row] = -1;

        /* decode every needed slot against the round-start cumulative
         * counts (decoding must finish before any apply). */
        const int64_t ndec = coll ? 2 * mc + 2 : 2 * nclean;
        int32_t acc = 0;
        for (int64_t k = 0; k < s; k++) {
            acc += (int32_t)crow[k];
            cum[k] = acc;
        }
        {
            int64_t k = 0;
            for (int64_t b = 0; b < nb; b++) {
                const int32_t p0 = (int32_t)(b << bshift);
                while (cum[k] <= p0)
                    k++;
                bucket[b] = (int16_t)k;
            }
        }
        for (int64_t t = 0; t < ndec; t++)
            st[t] = (int32_t)decode_pos(cum, bucket, bshift, pos[t]);

        /* unanimity class counters at round start */
        int64_t c0 = 0, c1 = 0, c2 = 0;
        for (int64_t k = 0; k < s; k++) {
            const int64_t c = crow[k];
            if (!c)
                continue;
            const int64_t cl = cls[k];
            if (cl == 0)
                c0 += c;
            else if (cl == 1)
                c1 += c;
            else
                c2 += c;
        }

        /* sequential apply of the collision-free prefix.  Transitions
         * on disjoint agents commute, so applying in slot order with
         * round-start decodes IS the sequential chain; checking
         * unanimity after each productive step therefore finds the
         * exact settling interaction (unanimity is absorbing). */
        int64_t rp = 0, prod = 0, step = 0;
        int done_row = 0;
        for (int64_t k = 0; k < nclean; k++) {
            const int64_t i = st[2 * k], j = st[2 * k + 1];
            const int64_t e = ptab[i * s + j];
            step++;
            if (!PT_PRODUCTIVE(e)) {
                ni[k] = (int32_t)i;
                nj[k] = (int32_t)j;
                continue;
            }
            const int64_t xi = PT_XI(e), yj = PT_YJ(e);
            ni[k] = (int32_t)xi;
            nj[k] = (int32_t)yj;
            rp++;
            if (done_row)
                continue;
            crow[i]--;
            crow[j]--;
            crow[xi]++;
            crow[yj]++;
            c0 += PT_DC0(e);
            c1 += PT_DC1(e);
            c2 += PT_DC2(e);
            prod++;
            if (c0 == 0 && ((c1 == 0) != (c2 == 0))) {
                done_row = 1;
                settled[row] = 1;
                settle_step[row] = step;
                settle_prod[row] = prod;
                decision[row] = c2 > 0 ? 1 : 0;
            }
        }

        /* the colliding interaction: each of its two slots resolves to
         * the post-state of its previous occurrence's interaction when
         * one exists (looked up in the hash table, which holds exactly
         * slots 0..t_star-1), else to its round-start decode. */
        if (coll) {
            step++;
            const int64_t e0 = t_star & ~(int64_t)1;
            int64_t cs[2];
            for (int k = 0; k < 2; k++) {
                const int64_t slot = e0 + k;
                int64_t pslot = -1;
                if (slot == t_star) {
                    pslot = prev;
                } else {
                    const uint64_t p = (uint64_t)(uint32_t)pos[slot];
                    uint64_t h = (p * HASH_MULT) >> hshift;
                    for (;;) {
                        const uint32_t e = ht[h];
                        if ((e >> 16) != epoch)
                            break;
                        const int64_t found = e & 0xFFFF;
                        if (pos[found] == (int32_t)p) {
                            if (found != slot)
                                pslot = found;
                            break;
                        }
                        h = (h + 1) & hmask;
                    }
                }
                cs[k] = pslot >= 0
                    ? ((pslot & 1) ? nj[pslot >> 1] : ni[pslot >> 1])
                    : st[slot];
            }
            const int64_t ci = cs[0], cj = cs[1];
            const int64_t e = ptab[ci * s + cj];
            if (PT_PRODUCTIVE(e)) {
                rp++;
                if (!done_row) {
                    const int64_t xi = PT_XI(e), yj = PT_YJ(e);
                    crow[ci]--;
                    crow[cj]--;
                    crow[xi]++;
                    crow[yj]++;
                    c0 += PT_DC0(e);
                    c1 += PT_DC1(e);
                    c2 += PT_DC2(e);
                    prod++;
                    if (c0 == 0 && ((c1 == 0) != (c2 == 0))) {
                        settled[row] = 1;
                        settle_step[row] = step;
                        settle_prod[row] = prod;
                        decision[row] = c2 > 0 ? 1 : 0;
                    }
                }
            }
        }
        round_prod[row] = rp;
    }
}

/* One round on pre-drawn values (the arguments of round_rows);
 * returns -1 when the work buffers cannot be allocated. */
EXPORT int64_t repro_ensemble_round(
    const int64_t *raw, int64_t live, int64_t w, int64_t n, int64_t s,
    int64_t *counts, const int64_t *remaining,
    const int64_t *ptab, const int64_t *cls,
    int64_t *consumed, int64_t *round_prod, int64_t *settled,
    int64_t *settle_step, int64_t *settle_prod, int64_t *decision)
{
    round_scratch sc;
    if (scratch_init(&sc, w, s))
        return -1;
    round_rows(raw, live, w, n, s, counts, remaining, ptab, cls,
               consumed, round_prod, settled, settle_step, settle_prod,
               decision, &sc);
    scratch_free(&sc);
    return 0;
}

/* numpy's bounded-integer fill (numpy/random/lib/libnpyrandom.a): the
 * routine behind Generator.integers(low, high, size, dtype=np.int64)
 * with off = low and rng = high - 1 - low.  Declared here because
 * distributions.h pulls in Python.h. */
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt,
                                bool use_masked, uint64_t *out);

/* Generator.integers(0, rng + 1, size=cnt, dtype=np.int64) into out;
 * the load-time check compares it with numpy. */
EXPORT void repro_bounded_fill(void *bitgen, int64_t rng, int64_t cnt,
                               int64_t *out)
{
    random_bounded_uint64_fill((bitgen_t *)bitgen, 0, (uint64_t)rng,
                               (intptr_t)cnt, false, (uint64_t *)out);
}

/* The whole clean trial loop of one count-ensemble chunk: T trials
 * from the rows of counts until each settles or spends budget
 * interactions.  Mirrors CountEnsembleEngine._run_ensemble_clean
 * round for round -- one Generator.integers(0, n(n-1), (live, w))
 * draw from bitgen, the window step, retirement with row compaction,
 * and the window rule int(1.3 * mean(consumed)) + 2 clipped to
 * [w_min, w_cap] (sums of consumed stay below 2^53, so the double mean
 * equals numpy's) -- so the stream and every result are bit-identical
 * to the numpy path.  The caller holds the bit generator's lock.
 *
 * In:  counts (T, s) start rows; window the first round's window.
 * Out: counts (T, s) each trial's final row, in trial order;
 *      steps / productive / settled / decision (T,) per trial
 *      (decision -1 when unsettled); totals = {rounds, drawn}.
 * Returns 0, or -1 when the work buffers cannot be allocated.
 */
EXPORT int64_t repro_ensemble_batch(
    void *bitgen, int64_t T, int64_t n, int64_t s, int64_t budget,
    int64_t window, int64_t w_min, int64_t w_cap,
    int64_t *counts, const int64_t *ptab, const int64_t *cls,
    int64_t *steps_out, int64_t *prod_out, int64_t *settled_out,
    int64_t *decision_out, int64_t *totals)
{
    const uint64_t rng = (uint64_t)(n * (n - 1) - 1);
    round_scratch sc;
    if (scratch_init(&sc, w_cap, s))
        return -1;
    int64_t *live_counts = malloc((size_t)(T * s) * sizeof(int64_t));
    int64_t *raw = malloc((size_t)(T * w_cap) * sizeof(int64_t));
    int64_t *per_row = malloc((size_t)(10 * T) * sizeof(int64_t));
    if (!live_counts || !raw || !per_row) {
        free(live_counts);
        free(raw);
        free(per_row);
        scratch_free(&sc);
        return -1;
    }
    int64_t *ids = per_row, *steps = per_row + T, *prod = per_row + 2 * T,
            *remaining = per_row + 3 * T, *consumed = per_row + 4 * T,
            *round_prod = per_row + 5 * T, *settled = per_row + 6 * T,
            *sstep = per_row + 7 * T, *sprod = per_row + 8 * T,
            *dec = per_row + 9 * T;
    memcpy(live_counts, counts, (size_t)(T * s) * sizeof(int64_t));
    for (int64_t r = 0; r < T; r++) {
        ids[r] = r;
        steps[r] = 0;
        prod[r] = 0;
    }

    int64_t live = T, rounds = 0, drawn = 0;
    while (live) {
        int64_t w = 0;
        for (int64_t r = 0; r < live; r++) {
            remaining[r] = budget - steps[r];     /* >= 1 */
            if (remaining[r] > w)
                w = remaining[r];
        }
        if (window < w)
            w = window;
        rounds++;
        drawn += w * live;
        random_bounded_uint64_fill((bitgen_t *)bitgen, 0, rng,
                                   (intptr_t)(live * w), false,
                                   (uint64_t *)raw);
        round_rows(raw, live, w, n, s, live_counts, remaining, ptab, cls,
                   consumed, round_prod, settled, sstep, sprod, dec, &sc);

        int64_t consumed_sum = 0, keep = 0;
        for (int64_t r = 0; r < live; r++) {
            consumed_sum += consumed[r];
            steps[r] += consumed[r];
            prod[r] += round_prod[r];
            const int64_t id = ids[r];
            if (settled[r]) {
                /* back the full-round totals out to the exact in-round
                 * settle point */
                steps_out[id] = steps[r] - consumed[r] + sstep[r];
                prod_out[id] = prod[r] - round_prod[r] + sprod[r];
                settled_out[id] = 1;
                decision_out[id] = dec[r];
            } else if (steps[r] >= budget) {
                steps_out[id] = budget;
                prod_out[id] = prod[r];
                settled_out[id] = 0;
                decision_out[id] = -1;
            } else {
                if (keep != r) {
                    ids[keep] = id;
                    steps[keep] = steps[r];
                    prod[keep] = prod[r];
                    memcpy(live_counts + keep * s, live_counts + r * s,
                           (size_t)s * sizeof(int64_t));
                }
                keep++;
                continue;
            }
            memcpy(counts + id * s, live_counts + r * s,
                   (size_t)s * sizeof(int64_t));
        }
        const double mean = (double)consumed_sum / (double)live;
        live = keep;
        int64_t next = (int64_t)(1.3 * mean) + 2;
        window = next < w_min ? w_min : (next > w_cap ? w_cap : next);
    }
    totals[0] = rounds;
    totals[1] = drawn;

    free(live_counts);
    free(raw);
    free(per_row);
    scratch_free(&sc);
    return 0;
}

/* numpy's geometric and gamma samplers (libnpyrandom.a): the routines
 * behind Generator.geometric(p) and Generator.gamma(shape, scale). */
int64_t random_geometric(bitgen_t *bitgen_state, double p);
double random_gamma(bitgen_t *bitgen_state, double shape, double scale);

/* Generator.geometric(p, size=cnt) and Generator.gamma(shape, scale,
 * size=cnt) into out; the load-time check compares them with numpy. */
EXPORT void repro_geometric_fill(void *bitgen, double p, int64_t cnt,
                                 int64_t *out)
{
    for (int64_t t = 0; t < cnt; t++)
        out[t] = random_geometric((bitgen_t *)bitgen, p);
}

EXPORT void repro_gamma_fill(void *bitgen, double shape, double scale,
                             int64_t cnt, double *out)
{
    for (int64_t t = 0; t < cnt; t++)
        out[t] = random_gamma((bitgen_t *)bitgen, shape, scale);
}

/* One null-skipping trial: NullSkippingEngine._simulate with the
 * plain unanimity tracker, draw for draw.  Per productive event it
 * rebuilds the weights W_k of the productive ordered pairs (pairs[k]
 * = i*s + j in i-major order, as _productive_pairs lists them), skips
 * Generator.geometric(W/(n(n-1))) steps, adds Generator.gamma(skip,
 * 1/n) to the clock when track_time is set, picks the pair through
 * Generator.integers(0, W) (the scalar path: one unmasked bounded
 * draw) and applies it through the packed table, whose class deltas
 * stand in for the tracker.  W and n(n-1) are exact doubles (n <=
 * 2^26), so the success probability is the Python division's.  Like
 * the Python loop it checks for settling only after a productive
 * event (Engine.run never simulates a settled start).  The caller
 * holds the bit generator's lock.
 *
 * In:  counts (s,) the start configuration, mutated in place;
 *      pairs (npairs,) flat indices of the productive pairs.
 * Out: out = {steps, productive, frozen}; *elapsed the clock.
 * Returns 0, or -1 when the weight buffer cannot be allocated.
 */
EXPORT int64_t repro_null_skip_run(
    void *bitgen, int64_t n, int64_t s, int64_t max_steps,
    int64_t track_time, int64_t *counts, const int64_t *ptab,
    const int64_t *cls, const int64_t *pairs, int64_t npairs,
    int64_t *out, double *elapsed)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    int64_t *weights = malloc((size_t)(3 * npairs + 1)
                              * sizeof(int64_t));
    if (!weights)
        return -1;
    int64_t *pi = weights + npairs, *pj = weights + 2 * npairs;
    for (int64_t k = 0; k < npairs; k++) {
        pi[k] = pairs[k] / s;
        pj[k] = pairs[k] % s;
    }
    const double total_pairs = (double)(n * (n - 1));
    const double inv_n = 1.0 / (double)n;
    int64_t c[3] = {0, 0, 0};
    for (int64_t k = 0; k < s; k++)
        c[cls[k]] += counts[k];

    int64_t steps = 0, productive = 0, frozen = 0;
    double clock = 0.0;
    for (;;) {
        int64_t total = 0;
        for (int64_t k = 0; k < npairs; k++) {
            const int64_t i = pi[k], j = pj[k];
            const int64_t w = i == j ? counts[i] * (counts[i] - 1)
                                     : counts[i] * counts[j];
            weights[k] = w;
            total += w;
        }
        if (total == 0) {
            /* no state-changing interaction is possible, ever */
            frozen = 1;
            break;
        }
        const int64_t skip = random_geometric(
            bg, (double)total / total_pairs);
        /* skip can be INT64_MAX at tiny p: compare without adding */
        if (skip > max_steps - steps) {
            const int64_t remaining = max_steps - steps;
            if (track_time && remaining > 0)
                clock += random_gamma(bg, (double)remaining, inv_n);
            steps = max_steps;
            break;
        }
        steps += skip;
        if (track_time)
            clock += random_gamma(bg, (double)skip, inv_n);
        productive++;

        uint64_t target;
        random_bounded_uint64_fill(bg, 0, (uint64_t)(total - 1), 1,
                                   false, &target);
        int64_t k = 0, acc = weights[0];
        while ((int64_t)target >= acc)
            acc += weights[++k];
        const int64_t e = ptab[pairs[k]];
        counts[pi[k]]--;
        counts[pj[k]]--;
        counts[PT_XI(e)]++;
        counts[PT_YJ(e)]++;
        c[0] += PT_DC0(e);
        c[1] += PT_DC1(e);
        c[2] += PT_DC2(e);
        if (c[0] == 0 && ((c[1] == 0) != (c[2] == 0)))
            break;
    }
    out[0] = steps;
    out[1] = productive;
    out[2] = frozen;
    *elapsed = clock;
    free(weights);
    return 0;
}

/* Fenwick helpers over a one-based tree array (index 0 unused),
 * transliterated from repro.sim.fenwick.FenwickTree. */
static inline void fen_add(int64_t *tree, int64_t size, int64_t index,
                           int64_t delta)
{
    for (int64_t i = index + 1; i <= size; i += i & -i)
        tree[i] += delta;
}

static inline int64_t fen_find(const int64_t *tree, int64_t size,
                               int64_t log_size, int64_t target)
{
    int64_t pos = 0, rem = target;
    for (int64_t step = log_size; step > 0; step >>= 1) {
        const int64_t cand = pos + step;
        if (cand <= size && tree[cand] <= rem) {
            pos = cand;
            rem -= tree[cand];
        }
    }
    return pos;
}

/* One block of the count engine's sample+update loop.  q/r are the
 * block's pre-split divmod targets (drawn by numpy on the Python
 * side); counts is mutated in place.  Stops at the exact settling
 * interaction.  out = {steps_done, productive, settled}. */
EXPORT void repro_count_block(
    const int64_t *q, const int64_t *r, int64_t block,
    int64_t *counts, int64_t s,
    const int64_t *ptab, const int64_t *cls,
    int64_t *out)
{
    int64_t *tree = calloc((size_t)(s + 1), sizeof(int64_t));
    for (int64_t k = 0; k < s; k++) {
        tree[k + 1] += counts[k];
        const int64_t parent = (k + 1) + ((k + 1) & -(k + 1));
        if (parent <= s)
            tree[parent] += tree[k + 1];
    }
    int64_t log_size = 1;
    while ((log_size << 1) <= s)
        log_size <<= 1;

    int64_t c0 = 0, c1 = 0, c2 = 0;
    for (int64_t k = 0; k < s; k++) {
        const int64_t c = counts[k];
        if (!c)
            continue;
        const int64_t cl = cls[k];
        if (cl == 0)
            c0 += c;
        else if (cl == 1)
            c1 += c;
        else
            c2 += c;
    }

    int64_t steps = 0, productive = 0, settled = 0;
    for (int64_t t = 0; t < block; t++) {
        steps++;
        const int64_t i = fen_find(tree, s, log_size, q[t]);
        fen_add(tree, s, i, -1);          /* without replacement */
        const int64_t j = fen_find(tree, s, log_size, r[t]);
        fen_add(tree, s, i, 1);
        const int64_t e = ptab[i * s + j];
        if (!PT_PRODUCTIVE(e))
            continue;
        productive++;
        const int64_t xi = PT_XI(e), yj = PT_YJ(e);
        counts[i]--;
        counts[j]--;
        counts[xi]++;
        counts[yj]++;
        fen_add(tree, s, i, -1);
        fen_add(tree, s, j, -1);
        fen_add(tree, s, xi, 1);
        fen_add(tree, s, yj, 1);
        c0 += PT_DC0(e);
        c1 += PT_DC1(e);
        c2 += PT_DC2(e);
        if (c0 == 0 && ((c1 == 0) != (c2 == 0))) {
            settled = 1;
            break;
        }
    }
    out[0] = steps;
    out[1] = productive;
    out[2] = settled;
    free(tree);
}

/* One disjoint matching step: chosen holds 2k distinct agent
 * indices (initiators first), agents/dense are mutated in place.
 * Returns the number of pairs whose transition changed a state. */
EXPORT int64_t repro_batch_match(
    const int64_t *chosen, int64_t k,
    int64_t *agents, int64_t *dense, int64_t s,
    const int64_t *ptab)
{
    int64_t changed = 0;
    for (int64_t t = 0; t < k; t++) {
        const int64_t u = chosen[t], v = chosen[k + t];
        const int64_t i = agents[u], j = agents[v];
        const int64_t e = ptab[i * s + j];
        if (PT_PRODUCTIVE(e)) {
            changed++;
            const int64_t xi = PT_XI(e), yj = PT_YJ(e);
            agents[u] = xi;
            agents[v] = yj;
            dense[i]--;
            dense[j]--;
            dense[xi]++;
            dense[yj]++;
        }
    }
    return changed;
}
