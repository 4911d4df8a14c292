/* The mRR/RR block kernel: the sets of consecutive blocks, each drawn from
 * its own numpy bit generator (see repro/sampling/kernel.py).
 *
 * Block b draws its first takes[b] sets one after another from its
 * generator. Set s draws, in this order:
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
 * block's generator state and the sets before it in the block;
 * tests/test_streams_pinned.py pins the sets that this order gives.
 */
#include <stdint.h>
#include <stdlib.h>

#include "numpy/random/bitgen.h"

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
static uint32_t bounded_u32(bitgen_t *bg, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = m & 0xFFFFFFFFUL;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
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
 * of out as its queue. The graph and generator fields are copied to locals
 * so that the draw calls do not force them to be reloaded. */
static int draw_set(bitgen_t *bg, const graph *g, int64_t k, uint64_t *seen, vec *out)
{
    double (*next_double)(void *) = bg->next_double;
    void *state = bg->state;
    const int64_t *indptr = g->indptr, *indices = g->indices;
    const double *probs = g->probs, *cum = g->cum;
    const uint8_t *active = g->active;
    const int lt = g->lt;
    int64_t head = out->len;
    for (int64_t j = g->n_i - k; j < g->n_i; j++) {
        int64_t v = g->active_idx[j ? bounded_u32(bg, (uint32_t)j) : 0];
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
            double r = next_double(state);
            int64_t c = 0;
            for (int64_t j = first; j < last; j++)
                c += cum[j] <= r;
            first += c;
            if (first < last)
                last = first + 1;
        }
        for (int64_t j = first; j < last; j++) {
            if (!lt && !(next_double(state) < probs[j]))
                continue;
            int64_t u = indices[j];
            if (active[u] && !test_set(seen, u) && push(out, u))
                return -1;
        }
    }
    return 0;
}

/* The sets of n_blocks blocks of B sets each: block b draws its first
 * takes[b] sets from bitgens[b], with root counts k[b*B ...]. Writes each
 * set's size to sizes (in set order) and sets *members to a malloc'd array
 * of their members, each set's roots first and then the nodes in the order
 * they joined; returns the member count, or -1 if memory ran out. The
 * caller frees *members with free_members. */
int64_t sample_blocks(int64_t n_blocks, bitgen_t **bitgens, const int64_t *k,
                      const int64_t *takes, int64_t B, int64_t n,
                      const int64_t *indptr, const int64_t *indices, const double *probs,
                      const double *cum, int lt, const uint8_t *active,
                      const int64_t *active_idx, int64_t n_i, int64_t *sizes,
                      int64_t **members)
{
    graph g = {indptr, indices, probs, cum, lt, active, active_idx, n_i};
    uint64_t *seen = calloc((n + 63) / 64, sizeof *seen);
    vec out = {0};
    int64_t result = -1;
    *members = NULL;
    if (!seen)
        goto done;
    for (int64_t b = 0; b < n_blocks; b++)
        for (int64_t s = 0; s < takes[b]; s++) {
            int64_t start = out.len;
            if (draw_set(bitgens[b], &g, k[b * B + s], seen, &out))
                goto done;
            *sizes++ = out.len - start;
            /* Every bit set in seen is a member of this set. */
            for (int64_t i = start; i < out.len; i++)
                seen[out.a[i] >> 6] = 0;
        }
    /* Give back the doubling slack before the caller copies the members. */
    int64_t *fit = out.len ? realloc(out.a, out.len * sizeof *fit) : NULL;
    *members = fit ? fit : out.a;
    out.a = NULL;
    result = out.len;
done:
    free(seen);
    free(out.a);
    return result;
}

void free_members(int64_t *members)
{
    free(members);
}
