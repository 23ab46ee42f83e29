/* The per-sample loop of gaitlab.orientation.madgwick_batch, as a CPython
 * extension module.
 *
 * `madgwick_loop` is a line-by-line translation of the Python loop
 * `_madgwick_loop`, in the same operation order. Built without
 * floating-point contraction or reassociation (-O2 -ffp-contract=off, no
 * -ffast-math), it gives the same bits. The module's one function, `loop`,
 * passes it the three buffers without copying them; building the module
 * needs the interpreter's headers (Python.h).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* `q` is read and written as (w, x, y, z); accel (g) and gyro (rad/s) are
 * C-contiguous (n, 3); `out` receives the hip angle in radians after each
 * sample. Returns the accel-rejected flag after the last sample, which is
 * the incoming flag when n is 0.
 */
static int madgwick_loop(double *q, const double *accel, const double *gyro, long n,
                         double dt, double beta, double gradient_ref,
                         int accel_rejected, double *out)
{
    double w = q[0], x = q[1], y = q[2], z = q[3];
    for (long i = 0; i < n; i++) {
        double ax = accel[3 * i], ay = accel[3 * i + 1], az = accel[3 * i + 2];
        double gx = gyro[3 * i], gy = gyro[3 * i + 1], gz = gyro[3 * i + 2];
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        if (!(isfinite(gx) && isfinite(gy) && isfinite(gz)))
            gx = gy = gz = 0.0;
        double an = sqrt(ax * ax + ay * ay + az * az);
        accel_rejected = !(an > 0.0 && isfinite(ax) && isfinite(ay) && isfinite(az));
        if (!accel_rejected) {
            double axn = ax / an, ayn = ay / an, azn = az / an;
            double _2w = 2.0 * w, _2x = 2.0 * x, _2y = 2.0 * y, _2z = 2.0 * z;
            /* Objective: predicted gravity in the sensor frame minus measurement. */
            double f1 = _2x * z - _2w * y - axn;
            double f2 = _2w * x + _2y * z - ayn;
            double f3 = 1.0 - _2x * x - _2y * y - azn;
            double s0 = -_2y * f1 + _2x * f2;
            double s1 = _2z * f1 + _2w * f2 - 2.0 * _2x * f3;
            double s2 = -_2w * f1 + _2z * f2 - 2.0 * _2y * f3;
            double s3 = _2x * f1 + _2y * f2;
            double ns = sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3);
            if (ns > 0.0) {
                double k = beta / (ns > gradient_ref ? ns : gradient_ref);
                c0 = k * s0;
                c1 = k * s1;
                c2 = k * s2;
                c3 = k * s3;
            }
        }

        double qdw = 0.5 * (-x * gx - y * gy - z * gz) - c0;
        double qdx = 0.5 * (w * gx + y * gz - z * gy) - c1;
        double qdy = 0.5 * (w * gy - x * gz + z * gx) - c2;
        double qdz = 0.5 * (w * gz + x * gy - y * gx) - c3;

        w += qdw * dt;
        x += qdx * dt;
        y += qdy * dt;
        z += qdz * dt;
        double inv = 1.0 / sqrt(w * w + x * x + y * y + z * z);
        w *= inv;
        x *= inv;
        y *= inv;
        z *= inv;
        out[i] = atan2(2.0 * (x * z - w * y), 1.0 - 2.0 * (x * x + y * y));
    }
    q[0] = w;
    q[1] = x;
    q[2] = y;
    q[3] = z;
    return accel_rejected;
}

/* loop(accel, gyro, out, dt, w, x, y, z, accel_rejected, beta, gradient_ref)
 *
 * accel and gyro are read-only buffers of 3n doubles and out a writable
 * buffer of n doubles, all C-contiguous; the caller guarantees the double
 * format, this function checks the lengths. Returns the final
 * (w, x, y, z, accel_rejected).
 */
static PyObject *loop(PyObject *self, PyObject *args)
{
    Py_buffer accel, gyro, out;
    double q[4], dt, beta, gradient_ref;
    int accel_rejected;
    PyObject *result = NULL;
    (void)self;

    if (!PyArg_ParseTuple(args, "y*y*w*dddddpdd:loop", &accel, &gyro, &out, &dt,
                          &q[0], &q[1], &q[2], &q[3], &accel_rejected, &beta,
                          &gradient_ref))
        return NULL;
    if (out.len % sizeof(double) != 0 || accel.len != gyro.len
        || accel.len != 3 * out.len) {
        PyErr_Format(PyExc_ValueError,
                     "loop needs 3n doubles of accel and of gyro for n of out, "
                     "got %zd, %zd and %zd bytes", accel.len, gyro.len, out.len);
    }
    else {
        accel_rejected = madgwick_loop(q, accel.buf, gyro.buf,
                                       (long)(out.len / (Py_ssize_t)sizeof(double)), dt,
                                       beta, gradient_ref, accel_rejected, out.buf);
        result = Py_BuildValue("(ddddO)", q[0], q[1], q[2], q[3],
                               accel_rejected ? Py_True : Py_False);
    }
    PyBuffer_Release(&accel);
    PyBuffer_Release(&gyro);
    PyBuffer_Release(&out);
    return result;
}

static PyMethodDef methods[] = {
    {"loop", loop, METH_VARARGS, "Run the Madgwick filter loop over n samples."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_madgwick", NULL, -1, methods,
};

PyMODINIT_FUNC PyInit__madgwick(void)
{
    return PyModule_Create(&module);
}
