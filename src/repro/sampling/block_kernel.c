/* The mRR/RR block kernel: the sets of consecutive blocks, each drawn from
 * its own PCG64 stream (see repro/sampling/kernel.py).
 *
 * Block j's stream is the one numpy's default_rng(substream(seed, j))
 * gives: the caller passes the seed's SeedSequence entropy as uint32 words
 * (its run entropy zero-padded to 4 words, then its spawn key), the kernel
 * appends j, mixes the words into SeedSequence's 4-word pool and seeds
 * PCG64 from generate_state(4, uint64), as numpy does. Block b then draws,
 * in this order:
 *   0. (mRR only) its B root counts, one next_double u each:
 *      k = k_low + (u < frac), clipped to [1, n_i], as
 *      np.clip(k_low + (rng.random(B) < frac), 1, n_i) would give; an RR
 *      set has k = 1 and draws nothing here;
 * and then its first takes[b] sets, one after another. Set s draws:
 *   1. its k roots, by Floyd's algorithm: for j = n_i - k, ..., n_i - 1 one
 *      integer t uniform in [0, j] by numpy's bounded integer rule
 *      (Generator.integers); active node t joins the set, or active node j
 *      when t is in it already. This gives a uniform k-subset of the n_i
 *      active nodes.
 *   2. a queue reverse BFS from its roots: IC draws one next_double per
 *      in-edge slot of each popped node and keeps slot j when the draw
 *      falls below probs[j]; LT draws one per popped node, counts the
 *      running sums cum[j] of its slots that are <= the draw and keeps the
 *      slot after them, if there is one (realization.lt_pick). A kept
 *      in-neighbour joins the set if it is active and not in it yet.
 * Each draw is the one Generator.random or Generator.integers would return
 * at that point of the block's stream, so a set depends only on the
 * block's stream and the sets before it in the block;
 * tests/test_streams_pinned.py pins the sets that this order gives.
 *
 * A call may split its blocks into contiguous runs, one per worker
 * thread, each with its own generator, bitmap and buffers; the runs'
 * sizes and members are put back in block order, so a call's output is
 * the same for any worker count.
 */
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the block kernel's PCG64 needs a C compiler with 128-bit integers (unsigned __int128)"
#endif

typedef unsigned __int128 u128;

/* numpy's SeedSequence with pool size 4 (numpy/random/bit_generator.pyx). */
#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

/* SeedSequence's generate_state(4, uint64) for the n entropy words. */
static void seed_state(const uint32_t *entropy, int64_t n, uint64_t state[4])
{
    uint32_t pool[POOL], h = INIT_A;
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(i < n ? entropy[i] : 0, &h);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    for (int64_t src = POOL; src < n; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &h));
    h = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t w = pool[i % POOL] ^ h;
        h *= MULT_B;
        w *= h;
        w ^= w >> 16;
        /* Two little-endian uint32 words make one uint64. */
        state[i / 2] = i % 2 ? state[i / 2] | (uint64_t)w << 32 : w;
    }
}

/* numpy's PCG64 (XSL-RR 128/64) and the draws Generator makes from it;
 * words counts the 64-bit outputs. */
typedef struct {
    u128 state, inc;
    uint32_t half; /* next_uint32's buffered high half */
    int has_half;
    int64_t words;
} pcg64;

#define PCG_MULT ((u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL)

static void pcg64_seed(pcg64 *g, const uint64_t s[4])
{
    g->inc = ((u128)s[2] << 64 | s[3]) << 1 | 1;
    g->state = g->inc;
    g->state = (g->state + ((u128)s[0] << 64 | s[1])) * PCG_MULT + g->inc;
    g->has_half = 0;
}

static uint64_t next_uint64(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    g->words++;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63);
}

static double next_double(pcg64 *g)
{
    return (next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* The low half of a 64-bit output, then its high half on the next call. */
static uint32_t next_uint32(pcg64 *g)
{
    if (g->has_half) {
        g->has_half = 0;
        return g->half;
    }
    uint64_t x = next_uint64(g);
    g->half = (uint32_t)(x >> 32);
    g->has_half = 1;
    return (uint32_t)x;
}

typedef struct {
    int64_t *a;
    int64_t len, cap;
} vec;

static int push(vec *v, int64_t x)
{
    if (v->len == v->cap) {
        int64_t cap = v->cap ? 2 * v->cap : 1024;
        int64_t *a = realloc(v->a, cap * sizeof *a);
        if (!a)
            return -1;
        v->a = a;
        v->cap = cap;
    }
    v->a[v->len++] = x;
    return 0;
}

/* numpy's buffered_bounded_lemire_uint32: a uniform integer in [0, rng],
 * for rng < 0xFFFFFFFF. */
static uint32_t bounded_u32(pcg64 *g, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)next_uint32(g) * rng_excl;
    uint32_t leftover = m & 0xFFFFFFFFUL;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next_uint32(g) * rng_excl;
            leftover = m & 0xFFFFFFFFUL;
        }
    }
    return m >> 32;
}

/* 1 if bit v was set already, else set it and return 0. */
static int test_set(uint64_t *bits, int64_t v)
{
    uint64_t mask = (uint64_t)1 << (v & 63);
    if (bits[v >> 6] & mask)
        return 1;
    bits[v >> 6] |= mask;
    return 0;
}

typedef struct {
    const int64_t *indptr, *indices;
    const double *probs, *cum;
    int lt;
    const uint8_t *active;
    const int64_t *active_idx;
    int64_t n_i;
} graph;

/* Append one set with k roots to out, its members marked in seen: the
 * roots, then the nodes the reverse BFS reaches, which uses the set's part
 * of out as its queue. The graph fields are copied to locals so that the
 * draws do not force them to be reloaded. */
static int draw_set(pcg64 *rng, const graph *g, int64_t k, uint64_t *seen, vec *out)
{
    const int64_t *indptr = g->indptr, *indices = g->indices;
    const double *probs = g->probs, *cum = g->cum;
    const uint8_t *active = g->active;
    const int lt = g->lt;
    int64_t head = out->len;
    for (int64_t j = g->n_i - k; j < g->n_i; j++) {
        int64_t v = g->active_idx[j ? bounded_u32(rng, (uint32_t)j) : 0];
        if (test_set(seen, v)) {
            v = g->active_idx[j];
            test_set(seen, v);
        }
        if (push(out, v))
            return -1;
    }
    for (; head < out->len; head++) {
        int64_t v = out->a[head], first = indptr[v], last = indptr[v + 1];
        if (lt) {
            double r = next_double(rng);
            int64_t c = 0;
            for (int64_t j = first; j < last; j++)
                c += cum[j] <= r;
            first += c;
            if (first < last)
                last = first + 1;
        }
        for (int64_t j = first; j < last; j++) {
            if (!lt && !(next_double(rng) < probs[j]))
                continue;
            int64_t u = indices[j];
            if (active[u] && !test_set(seen, u) && push(out, u))
                return -1;
        }
    }
    return 0;
}

/* One worker's share of a call: blocks first … last − 1, whose sets'
 * sizes go to sizes and whose members to out, in block order. */
typedef struct {
    const graph *g;
    const uint32_t *entropy;
    int64_t n_entropy;
    const int64_t *js, *takes;
    int64_t first, last, B, k_low, n;
    double frac;
    int mrr;
    int64_t *sizes;
    vec out;
    int64_t words;
    int failed, started;
    pthread_t thread;
} run;

/* Draw run arg's blocks, with its own generator, bitmap and buffers; on
 * running out of memory set its failed flag. The generator and member
 * buffer are locals while drawing, so runs that share a cache line do
 * not write to it per draw. */
static void *draw_run(void *arg)
{
    run *r = arg;
    uint64_t *seen = calloc((r->n + 63) / 64, sizeof *seen);
    uint32_t *key = malloc((r->n_entropy + 1) * sizeof *key);
    int64_t *k = malloc(r->B * sizeof *k);
    int64_t *sizes = r->sizes, n_i = r->g->n_i;
    pcg64 rng = {0};
    vec out = {0};
    r->failed = !seen || !key || !k;
    if (key)
        memcpy(key, r->entropy, r->n_entropy * sizeof *key);
    for (int64_t b = r->first; b < r->last && !r->failed; b++) {
        uint64_t state[4];
        key[r->n_entropy] = (uint32_t)r->js[b];
        seed_state(key, r->n_entropy + 1, state);
        pcg64_seed(&rng, state);
        for (int64_t s = 0; s < r->B; s++) {
            k[s] = r->mrr ? r->k_low + (next_double(&rng) < r->frac) : 1;
            k[s] = k[s] < 1 ? 1 : k[s] > n_i ? n_i : k[s];
        }
        for (int64_t s = 0; s < r->takes[b]; s++) {
            int64_t start = out.len;
            if (draw_set(&rng, r->g, k[s], seen, &out)) {
                r->failed = 1;
                break;
            }
            *sizes++ = out.len - start;
            /* Every bit set in seen is a member of this set. */
            for (int64_t i = start; i < out.len; i++)
                seen[out.a[i] >> 6] = 0;
        }
    }
    /* The buffer keeps its doubling slack until take_members frees it:
     * shrinking it in place left holes in the heap when runs grew side
     * by side, which raised the process's resident memory. */
    r->out = out;
    r->words = rng.words;
    free(seen);
    free(key);
    free(k);
    return NULL;
}

/* A call's runs, handed to the caller between sample_blocks and
 * take_members. */
typedef struct {
    int64_t n_runs;
    run runs[];
} call;

/* Copy the members of c's runs, in run order, to dst (unless it is NULL)
 * and free c. */
void take_members(call *c, int64_t *dst)
{
    for (int64_t w = 0; w < c->n_runs; w++) {
        vec *out = &c->runs[w].out;
        if (dst && out->len) {
            memcpy(dst, out->a, out->len * sizeof *dst);
            dst += out->len;
        }
        free(out->a);
    }
    free(c);
}

/* The sets of n_blocks blocks of B sets each: block b draws its first
 * takes[b] sets from the stream of entropy + (js[b],), with root counts
 * from k_low and frac when mrr is set, else one root each, from the
 * active nodes (active[v] != 0) of the n-node graph. The blocks split
 * into workers contiguous runs (at most one per block), each drawn by
 * its own thread, the calling thread drawing the first; a run whose
 * thread cannot start is drawn by the calling thread. A block's sets
 * depend only on its stream, so the output does not depend on workers.
 * Writes each set's size to sizes (in set order), the count of 64-bit
 * words drawn to *words and the runs to *runs, for take_members to copy
 * the members out: each set's roots first, then the nodes in the order
 * they joined. Returns the member count; -1 if memory ran out, -2 if a
 * block id is negative or needs more than 32 bits, -3 if a take is not
 * in [0, B], with nothing left to free. */
int64_t sample_blocks(const uint32_t *entropy, int64_t n_entropy, int64_t n_blocks,
                      const int64_t *js, const int64_t *takes, int64_t B, int mrr,
                      int64_t k_low, double frac, int64_t n, const int64_t *indptr,
                      const int64_t *indices, const double *probs, const double *cum, int lt,
                      const uint8_t *active, int64_t workers, int64_t *sizes, call **runs,
                      int64_t *words)
{
    *runs = NULL;
    for (int64_t b = 0; b < n_blocks; b++) {
        if (js[b] < 0 || js[b] > (int64_t)UINT32_MAX)
            return -2;
        if (takes[b] < 0 || takes[b] > B)
            return -3;
    }
    workers = workers > n_blocks ? n_blocks : workers;
    workers = workers < 1 ? 1 : workers;
    int64_t *active_idx = malloc((n + 1) * sizeof *active_idx);
    call *c = calloc(1, sizeof *c + workers * sizeof *c->runs);
    if (!active_idx || !c) {
        free(active_idx);
        free(c);
        return -1;
    }
    int64_t n_i = 0;
    for (int64_t v = 0; v < n; v++)
        if (active[v])
            active_idx[n_i++] = v;
    graph g = {indptr, indices, probs, cum, lt, active, active_idx, n_i};
    c->n_runs = workers;
    for (int64_t w = 0, b = 0, set = 0; w < workers; w++) {
        run *r = &c->runs[w];
        *r = (run){.g = &g, .entropy = entropy, .n_entropy = n_entropy, .js = js, .takes = takes,
                   .first = b, .last = n_blocks * (w + 1) / workers, .B = B, .k_low = k_low,
                   .n = n, .frac = frac, .mrr = mrr, .sizes = sizes + set};
        for (; b < r->last; b++)
            set += takes[b];
    }
    for (int64_t w = 1; w < workers; w++)
        c->runs[w].started = !pthread_create(&c->runs[w].thread, NULL, draw_run, &c->runs[w]);
    draw_run(&c->runs[0]);
    int64_t count = 0;
    int failed = 0;
    *words = 0;
    for (int64_t w = 0; w < workers; w++) {
        run *r = &c->runs[w];
        if (r->started)
            pthread_join(r->thread, NULL);
        else if (w)
            draw_run(r);
        failed |= r->failed;
        count += r->out.len;
        *words += r->words;
    }
    free(active_idx);
    if (failed) {
        take_members(c, NULL);
        return -1;
    }
    *runs = c;
    return count;
}
