/* Compiled session kernel, written against the CPython C API.
 *
 * Statement-for-statement twin of _purecore.py; both must produce
 * bit-identical output for the same arguments.  See _purecore for the RNG
 * protocol.  All randomness is 64-bit integer math plus the same IEEE double
 * operations as the Python twin (the 2^-53 scaling, `u < prob` and
 * `(int)(u * (m + 1))`), so equality across the backends is exact.
 * simulate_session checks every argument it reads, so a malformed direct
 * call raises rather than reading past the probability table, and a bad
 * n, rounds or seed raises the same error as in the Python twin.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>

#define MAX_POP 64 /* the per-agent arrays are fixed-size C arrays */

static const double DOUBLE_UNIT = 1.0 / 9007199254740992.0; /* 2^-53 */

static inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

static uint64_t
splitmix64(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* xoshiro256** step on a 4-word state */
static inline uint64_t
next(uint64_t *s)
{
    uint64_t x = s[1];
    uint64_t result = rotl(x * 5, 7) * 9;
    uint64_t t = x << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

static inline double
uniform(uint64_t *s)
{
    return (double)(next(s) >> 11) * DOUBLE_UNIT;
}

/* "O&" converter: any Python integer (via __index__) as a long long,
 * clamped to that type's range, so the range checks below see every value
 * and none raises OverflowError */
static int
as_clamped_count(PyObject *obj, void *out)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return 0;
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (value == -1 && PyErr_Occurred())
        return 0;
    if (overflow)
        value = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    *(long long *)out = value;
    return 1;
}

static PyObject *
simulate_session(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "rounds", "probs", "seed", "round_robin",
                             NULL};
    long long n_arg, rounds_arg;
    int round_robin = 0;
    PyObject *probs, *seed;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O&O&O!O|p:simulate_session",
                                     kwlist, as_clamped_count, &n_arg,
                                     as_clamped_count, &rounds_arg,
                                     &PyTuple_Type, &probs, &seed,
                                     &round_robin))
        return NULL;

    if (n_arg < 1) {
        PyErr_SetString(PyExc_ValueError, "population size must be >= 1");
        return NULL;
    }
    if (n_arg > MAX_POP) {
        PyErr_Format(PyExc_ValueError,
                     "compiled kernel supports populations up to %d", MAX_POP);
        return NULL;
    }
    if (rounds_arg < 1) {
        PyErr_SetString(PyExc_ValueError, "rounds must be >= 1");
        return NULL;
    }
    if (rounds_arg > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "rounds must be at most %d", INT_MAX);
        return NULL;
    }
    int n = (int)n_arg, rounds = (int)rounds_arg; /* both checked above */

    /* any Python int, reduced mod 2^64 */
    uint64_t state = PyLong_AsUnsignedLongLongMask(seed);
    if (state == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    uint64_t action[4], match[4];
    for (int w = 0; w < 4; w++)
        action[w] = splitmix64(&state);
    for (int w = 0; w < 4; w++)
        match[w] = splitmix64(&state);

    if (PyTuple_GET_SIZE(probs) != 6) {
        PyErr_Format(PyExc_ValueError,
                     "the probability table takes 6 entries, got %zd",
                     PyTuple_GET_SIZE(probs));
        return NULL;
    }
    /* (px_init, px1, px0, py_init, py1, py0) */
    double table[6];
    for (int w = 0; w < 6; w++) {
        table[w] = PyFloat_AsDouble(PyTuple_GET_ITEM(probs, w));
        if (table[w] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    double px_init = table[0], px1 = table[1], px0 = table[2];
    double py_init = table[3], py1 = table[4], py0 = table[5];
    /* a table that reads no history draws no matching */
    int matched = !(px_init == px1 && px1 == px0
                    && py_init == py1 && py1 == py0);

    PyObject *states = PyList_New(rounds);
    if (states == NULL)
        return NULL;

    int seen_y[MAX_POP], seen_x[MAX_POP]; /* last opponent action seen */
    int x_actions[MAX_POP], y_actions[MAX_POP], perm[MAX_POP];
    for (int m = 0; m < n; m++)
        seen_y[m] = seen_x[m] = -1;

    for (int r = 0; r < rounds; r++) {
        int i = 0;
        for (int m = 0; m < n; m++) {
            double u = uniform(action);
            int s = seen_y[m];
            double prob = s < 0 ? px_init : (s == 1 ? px1 : px0);
            int a = u < prob ? 1 : 0;
            x_actions[m] = a;
            i += a;
        }
        int j = 0;
        for (int m = 0; m < n; m++) {
            double u = uniform(action);
            int s = seen_x[m];
            double prob = s < 0 ? py_init : (s == 1 ? py1 : py0);
            int a = u < prob ? 1 : 0;
            y_actions[m] = a;
            j += a;
        }

        if (matched) {
            if (round_robin) {
                for (int m = 0; m < n; m++)
                    perm[m] = (m + r % n) % n; /* (m + r) % n, no overflow */
            }
            else {
                for (int m = 0; m < n; m++)
                    perm[m] = m;
                for (int m = n - 1; m > 0; m--) {
                    double u = uniform(match);
                    int k = (int)(u * (m + 1));
                    int tmp = perm[m];
                    perm[m] = perm[k];
                    perm[k] = tmp;
                }
            }
            for (int m = 0; m < n; m++) {
                int partner = perm[m];
                seen_y[m] = y_actions[partner];
                seen_x[partner] = x_actions[m];
            }
        }

        PyObject *cell = Py_BuildValue("(ii)", i, j);
        if (cell == NULL) {
            Py_DECREF(states);
            return NULL;
        }
        PyList_SET_ITEM(states, r, cell);
    }
    return states;
}

static PyMethodDef fastcore_methods[] = {
    {"simulate_session", (PyCFunction)(void (*)(void))simulate_session,
     METH_VARARGS | METH_KEYWORDS,
     "simulate_session(n, rounds, probs, seed, round_robin=False)\n"
     "--\n\n"
     "Compiled twin of _purecore.simulate_session; same contract."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT, "_fastcore",
    "Compiled session kernel; the C twin of maxentgames._purecore.", -1,
    fastcore_methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC
PyInit__fastcore(void)
{
    return PyModule_Create(&fastcore_module);
}
