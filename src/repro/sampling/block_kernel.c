/* The mRR/RR block kernel: the sets of consecutive blocks, each drawn from
 * its own numpy bit generator (see repro/sampling/kernel.py).
 *
 * A block of B sets draws, from its generator and in this order:
 *   1. roots: rounds over the sets, set s drawing as many uniform picks
 *      of the n_i active nodes as it still lacks, by numpy's bounded
 *      integer rule (Generator.integers); its distinct new ones join it
 *      (the first k distinct values of an i.i.d. sequence are a uniform
 *      k-subset). A set with 2k > n_i draws the n_i - k nodes it leaves
 *      out instead.
 *   2. a level-synchronous reverse BFS over (set, node) keys, the frontier
 *      in ascending (s, v) order after the first step (the roots come round
 *      by round, or sorted if some set leaves nodes out): IC draws one
 *      next_double per in-edge slot of each frontier key and keeps slot j
 *      when the draw falls below probs[j]; LT draws one per frontier key,
 *      counts the running sums cum[j] of its slots that are <= the draw and
 *      keeps the slot after them, if there is one (realization.lt_pick).
 *      A kept in-neighbour joins the set if it is active and not in it yet.
 * Each draw is the one Generator.random or Generator.integers would return
 * at that point of the block's stream, so the sets depend only on the
 * block's generator state; tests/test_streams_pinned.py pins the sets that
 * this order gives.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

typedef struct {
    int64_t *a;
    int64_t len, cap;
} vec;

/* Make room for len more entries. */
static int reserve(vec *v, int64_t len)
{
    if (v->len + len > v->cap) {
        int64_t cap = v->cap ? v->cap : 1024;
        while (cap < v->len + len)
            cap *= 2;
        int64_t *a = realloc(v->a, cap * sizeof *a);
        if (!a)
            return -1;
        v->a = a;
        v->cap = cap;
    }
    return 0;
}

static int push(vec *v, int64_t x)
{
    if (reserve(v, 1))
        return -1;
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

/* 1 if bit key was set already, else set it and return 0. */
static int test_set(uint64_t *bits, int64_t key)
{
    uint64_t mask = (uint64_t)1 << (key & 63);
    if (bits[key >> 6] & mask)
        return 1;
    bits[key >> 6] |= mask;
    return 0;
}

static void clear_bit(uint64_t *bits, int64_t key)
{
    bits[key >> 6] &= ~((uint64_t)1 << (key & 63));
}

static void sort_i64(int64_t *a, int64_t len)
{
    while (len > 16) {
        int64_t x = a[0], y = a[len / 2], z = a[len - 1];
        int64_t pivot = x < y ? (y < z ? y : (x < z ? z : x)) : (x < z ? x : (y < z ? z : y));
        int64_t i = 0, j = len - 1;
        for (;;) {
            while (a[i] < pivot)
                i++;
            while (a[j] > pivot)
                j--;
            if (i >= j)
                break;
            int64_t t = a[i];
            a[i++] = a[j];
            a[j--] = t;
        }
        /* Recurse on the smaller part, loop on the larger. */
        if (j + 1 < len - j - 1) {
            sort_i64(a, j + 1);
            a += j + 1;
            len -= j + 1;
        } else {
            sort_i64(a + j + 1, len - j - 1);
            len = j + 1;
        }
    }
    for (int64_t i = 1; i < len; i++) {
        int64_t t = a[i], j = i;
        for (; j > 0 && a[j - 1] > t; j--)
            a[j] = a[j - 1];
        a[j] = t;
    }
}

/* Keys pack (set s, node v) as s << 32 | v, so they order as (s, v). */
#define SET(key) ((key) >> 32)
#define NODE(key) ((key) & 0xFFFFFFFF)

/* Sort a, unless it is sorted already (a left-out set's roots are). */
static void sort_unsorted(int64_t *a, int64_t len)
{
    for (int64_t i = 1; i < len; i++)
        if (a[i] < a[i - 1]) {
            sort_i64(a, len);
            return;
        }
}

/* Sort keys, which come as runs that each go set by set (one run per
 * root round, in a step after several): sort each set's piece of a run,
 * then merge the runs in order through tmp. */
static int sort_keys(int64_t *a, int64_t len, vec *tmp)
{
    int64_t merged = 0;
    for (int64_t lo = 0, hi; lo < len; lo = hi) {
        for (hi = lo + 1; hi < len && SET(a[hi]) == SET(a[lo]); hi++)
            ;
        sort_unsorted(a + lo, hi - lo);
        if (hi < len && SET(a[hi]) > SET(a[lo]))
            continue;
        /* a[0..merged) and a[merged..hi) are sorted: merge them. */
        if (merged > 0) {
            tmp->len = 0;
            if (reserve(tmp, hi))
                return -1;
            int64_t i = 0, j = merged, k = 0;
            while (i < merged && j < hi)
                tmp->a[k++] = a[j] < a[i] ? a[j++] : a[i++];
            memcpy(tmp->a + k, a + i, (merged - i) * sizeof *a);
            memcpy(tmp->a + k + merged - i, a + j, (hi - j) * sizeof *a);
            memcpy(a, tmp->a, hi * sizeof *a);
        }
        merged = hi;
    }
    return 0;
}

typedef struct {
    int64_t stride; /* bits per set in the seen bitmap: n rounded up to 64 */
    const int64_t *indptr, *indices;
    const double *probs, *cum;
    int lt;
    const uint8_t *active;
    const int64_t *active_idx;
    int64_t n_i;
} graph;

/* Bit (s, v) of the seen bitmap. */
#define BIT(g, key) (SET(key) * (g)->stride + NODE(key))

/* Sort the c keys a of set s, whose bits in seen are exactly these keys:
 * read them off its bitmap words when those are few against c, else sort
 * the keys. With clear, write nodes instead of keys and clear the bits. */
static void sort_set(const graph *g, uint64_t *seen, int64_t s, int64_t *a, int64_t c, int clear)
{
    int64_t words = g->stride / 64, base = clear ? 0 : s << 32;
    uint64_t *bits = seen + s * words;
    if (words <= 4 * c) {
        for (int64_t w = 0; w < words; w++) {
            for (uint64_t x = bits[w]; x; x &= x - 1)
                *a++ = base + 64 * w + __builtin_ctzll(x);
            if (clear)
                bits[w] = 0;
        }
        return;
    }
    for (int64_t i = 0; clear && i < c; i++) {
        a[i] = NODE(a[i]);
        clear_bit(bits, a[i]);
    }
    sort_i64(a, c);
}

/* Append the roots of sets 0..B-1 (root counts k) to keys and mark them
 * in seen; need, left_out (B long) and tmp are scratch. */
static int draw_roots(bitgen_t *bg, const graph *g, const int64_t *k, int64_t B,
                      uint64_t *seen, vec *keys, int64_t *need, uint8_t *left_out, vec *tmp)
{
    const int64_t n_i = g->n_i, start = keys->len;
    int64_t left = 0, any_out = 0;
    for (int64_t s = 0; s < B; s++) {
        left_out[s] = 2 * k[s] > n_i;
        any_out |= left_out[s];
        need[s] = left_out[s] ? n_i - k[s] : k[s];
        left += need[s];
    }
    for (int round = 0; left; round++) {
        int64_t round_start = keys->len;
        for (int64_t s = 0; s < B; s++) {
            int64_t set_start = keys->len;
            for (int64_t c = need[s]; c > 0; c--) {
                int64_t pick = n_i == 1 ? 0 : bounded_u32(bg, (uint32_t)(n_i - 1));
                int64_t key = s << 32 | g->active_idx[pick];
                if (!test_set(seen, BIT(g, key))) {
                    if (push(keys, key))
                        return -1;
                    need[s]--;
                    left--;
                }
            }
            /* After the first round a set's bits are its keys. */
            if (round == 0)
                sort_set(g, seen, s, keys->a + set_start, keys->len - set_start, 0);
        }
        if (round > 0 && sort_keys(keys->a + round_start, keys->len - round_start, tmp))
            return -1;
    }
    if (!any_out)
        return 0;
    /* A left-out set keeps the active nodes it did not draw. */
    int64_t drawn = keys->len;
    for (int64_t s = 0; s < B; s++) {
        if (!left_out[s])
            continue;
        for (int64_t i = 0; i < n_i; i++) {
            int64_t key = s << 32 | g->active_idx[i], bit = BIT(g, key);
            if (!(seen[bit >> 6] >> (bit & 63) & 1) && push(keys, key))
                return -1;
        }
    }
    int64_t kept = start;
    for (int64_t i = start; i < drawn; i++) {
        int64_t key = keys->a[i];
        if (left_out[SET(key)])
            clear_bit(seen, BIT(g, key));
        else
            keys->a[kept++] = key;
    }
    for (int64_t i = drawn; i < keys->len; i++) {
        test_set(seen, BIT(g, keys->a[i]));
        keys->a[kept++] = keys->a[i];
    }
    keys->len = kept;
    return sort_keys(keys->a + start, kept - start, tmp);
}

/* Run the reverse BFS from the frontier keys->a[lo..len), appending each
 * step's new keys, sorted; tmp is scratch. The graph and generator fields
 * are copied to locals so that the draw calls do not force them to be
 * reloaded. */
static int reverse_bfs(bitgen_t *bg, const graph *g, uint64_t *seen, vec *keys, int64_t lo,
                       vec *tmp)
{
    double (*next_double)(void *) = bg->next_double;
    void *state = bg->state;
    const int64_t *indptr = g->indptr, *indices = g->indices, words = g->stride / 64;
    const double *probs = g->probs, *cum = g->cum;
    const uint8_t *active = g->active;
    const int lt = g->lt;
    int64_t hi = keys->len;
    while (lo < hi) {
        for (int64_t i = lo; i < hi; i++) {
            int64_t key = keys->a[i], v = NODE(key), base = key - v;
            uint64_t *bits = seen + SET(key) * words;
            int64_t first = indptr[v], last = indptr[v + 1];
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
                if (active[u] && !test_set(bits, u) && push(keys, base + u))
                    return -1;
            }
        }
        if (sort_keys(keys->a + hi, keys->len - hi, tmp))
            return -1;
        lo = hi;
        hi = keys->len;
    }
    return 0;
}

/* The sets of n_blocks blocks of B sets each: block b draws from
 * bitgens[b] with root counts k[b*B .. b*B + B) and keeps its first
 * takes[b] sets. Writes each kept set's size to sizes (in set order) and
 * sets *members to a malloc'd array of their members, each set's
 * ascending; returns the member count, or -1 if memory ran out. The
 * caller frees *members with free_members. */
int64_t sample_blocks(int64_t n_blocks, bitgen_t **bitgens, const int64_t *k,
                      const int64_t *takes, int64_t B, int64_t n,
                      const int64_t *indptr, const int64_t *indices, const double *probs,
                      const double *cum, int lt, const uint8_t *active,
                      const int64_t *active_idx, int64_t n_i, int64_t *sizes,
                      int64_t **members)
{
    graph g = {(n + 63) / 64 * 64, indptr, indices, probs, cum, lt, active, active_idx, n_i};
    uint64_t *seen = calloc(B * g.stride / 64, sizeof *seen);
    int64_t *need = malloc(B * sizeof *need);
    int64_t *offset = malloc((B + 1) * sizeof *offset);
    uint8_t *left_out = malloc(B);
    vec keys = {0}, out = {0}, tmp = {0};
    int64_t result = -1;
    *members = NULL;
    if (!seen || !need || !offset || !left_out)
        goto done;
    for (int64_t b = 0; b < n_blocks; b++) {
        keys.len = 0;
        if (draw_roots(bitgens[b], &g, k + b * B, B, seen, &keys, need, left_out, &tmp) ||
            reverse_bfs(bitgens[b], &g, seen, &keys, 0, &tmp))
            goto done;
        /* Bucket the kept sets' keys by set, then emit each set; the keys
         * of the sets cut off are only cleared. */
        int64_t take = takes[b];
        memset(offset, 0, (B + 1) * sizeof *offset);
        for (int64_t i = 0; i < keys.len; i++)
            offset[SET(keys.a[i]) + 1]++;
        for (int64_t s = 0; s < take; s++) {
            sizes[s] = offset[s + 1];
            offset[s + 1] += offset[s];
        }
        int64_t kept = offset[take];
        if (reserve(&out, kept))
            goto done;
        int64_t *set_members = out.a + out.len;
        for (int64_t i = 0; i < keys.len; i++) {
            int64_t s = SET(keys.a[i]);
            if (s < take)
                set_members[offset[s]++] = keys.a[i];
            else
                clear_bit(seen, BIT(&g, keys.a[i]));
        }
        for (int64_t s = 0; s < take; s++) {
            sort_set(&g, seen, s, set_members, sizes[s], 1);
            set_members += sizes[s];
        }
        out.len += kept;
        sizes += take;
    }
    /* Give back the doubling slack before the caller copies the members. */
    int64_t *fit = out.len ? realloc(out.a, out.len * sizeof *fit) : NULL;
    *members = fit ? fit : out.a;
    out.a = NULL;
    result = out.len;
done:
    free(seen);
    free(need);
    free(offset);
    free(left_out);
    free(keys.a);
    free(out.a);
    free(tmp.a);
    return result;
}

void free_members(int64_t *members)
{
    free(members);
}
