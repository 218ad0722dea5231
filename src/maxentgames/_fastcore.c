/* Compiled session kernel, written against the CPython C API.
 *
 * Statement-for-statement twin of _purecore.py; both must produce
 * bit-identical output for the same arguments.  See _purecore for the RNG
 * protocol.  All randomness is 64-bit integer math plus the same IEEE double
 * operations as the Python twin (the 2^-53 scaling, `u < prob` and
 * `(int)(u * (m + 1))`), so equality across the backends is exact.
 * simulate_session checks every argument it reads, so a malformed direct
 * call raises rather than reading past the probability table.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_POP 64 /* the counts live in a fixed-size C array */

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

static PyObject *
simulate_session(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "rounds", "mode", "probs", "seed",
                             "matching", "record", NULL};
    int n, rounds, mode, matching = 0, record = 0;
    PyObject *probs, *seed;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiiO!O|ip:simulate_session",
                                     kwlist, &n, &rounds, &mode, &PyTuple_Type,
                                     &probs, &seed, &matching, &record))
        return NULL;

    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "population size must be >= 1");
        return NULL;
    }
    if (n > MAX_POP) {
        PyErr_Format(PyExc_ValueError,
                     "compiled kernel supports populations up to %d", MAX_POP);
        return NULL;
    }
    if (rounds < 1) {
        PyErr_SetString(PyExc_ValueError, "rounds must be >= 1");
        return NULL;
    }

    /* any Python int, reduced mod 2^64 */
    uint64_t state = PyLong_AsUnsignedLongLongMask(seed);
    if (state == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    uint64_t action[4], match[4];
    for (int w = 0; w < 4; w++)
        action[w] = splitmix64(&state);
    for (int w = 0; w < 4; w++)
        match[w] = splitmix64(&state);

    if (mode != 0 && mode != 1) {
        PyErr_Format(PyExc_ValueError, "unknown policy mode %d", mode);
        return NULL;
    }
    Py_ssize_t wanted = mode == 0 ? 2 : 6;
    if (PyTuple_GET_SIZE(probs) != wanted) {
        PyErr_Format(PyExc_ValueError,
                     "policy mode %d takes %zd probabilities, got %zd",
                     mode, wanted, PyTuple_GET_SIZE(probs));
        return NULL;
    }
    /* (px_init, px1, px0, py_init, py1, py0); mode 0 spreads (p, q) */
    double table[6];
    for (int w = 0; w < 6; w++) {
        table[w] = PyFloat_AsDouble(
            PyTuple_GET_ITEM(probs, mode == 0 ? w / 3 : w));
        if (table[w] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    double px_init = table[0], px1 = table[1], px0 = table[2];
    double py_init = table[3], py1 = table[4], py0 = table[5];

    int size = n + 1;
    int64_t counts[(MAX_POP + 1) * (MAX_POP + 1)] = {0};
    PyObject *trajectory = NULL;
    if (record && (trajectory = PyList_New(rounds)) == NULL)
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

        /* i.i.d. play never reads seen_*, so it draws no matching */
        if (mode == 1) {
            if (matching == 0) {
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
            else {
                for (int m = 0; m < n; m++)
                    perm[m] = (m + r % n) % n; /* (m + r) % n, no overflow */
            }
            for (int m = 0; m < n; m++) {
                int partner = perm[m];
                seen_y[m] = y_actions[partner];
                seen_x[partner] = x_actions[m];
            }
        }

        counts[i * size + j] += 1;
        if (trajectory != NULL) {
            PyObject *cell = Py_BuildValue("(ii)", i, j);
            if (cell == NULL) {
                Py_DECREF(trajectory);
                return NULL;
            }
            PyList_SET_ITEM(trajectory, r, cell);
        }
    }

    PyObject *tally = PyList_New(size * size);
    for (int cell = 0; tally != NULL && cell < size * size; cell++) {
        PyObject *count = PyLong_FromLongLong(counts[cell]);
        if (count == NULL)
            Py_CLEAR(tally);
        else
            PyList_SET_ITEM(tally, cell, count);
    }
    PyObject *result = tally == NULL ? NULL : PyTuple_Pack(
        2, tally, trajectory != NULL ? trajectory : Py_None);
    Py_XDECREF(tally);
    Py_XDECREF(trajectory);
    return result;
}

static PyMethodDef fastcore_methods[] = {
    {"simulate_session", (PyCFunction)(void (*)(void))simulate_session,
     METH_VARARGS | METH_KEYWORDS,
     "simulate_session(n, rounds, mode, probs, seed, matching=0, record=False)\n"
     "--\n\n"
     "Compiled twin of _purecore.simulate_session; same contract."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT, "_fastcore",
    "Compiled session kernel; the C twin of maxentgames._purecore.", -1,
    fastcore_methods};

PyMODINIT_FUNC
PyInit__fastcore(void)
{
    return PyModule_Create(&fastcore_module);
}
